//! Error type for the core mechanisms.

use rd_flash::FlashError;

/// Errors returned by the recovery mechanisms.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// The underlying flash operation failed.
    Flash(FlashError),
    /// Recovery was requested on a page with no programmed data.
    NothingToRecover {
        /// The offending page.
        page: u32,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Flash(e) => write!(f, "flash operation failed: {e}"),
            CoreError::NothingToRecover { page } => {
                write!(f, "page {page} holds no programmed data to recover")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Flash(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FlashError> for CoreError {
    fn from(e: FlashError) -> Self {
        CoreError::Flash(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e: CoreError = FlashError::PageNotProgrammed { page: 1 }.into();
        assert!(e.to_string().contains("flash operation failed"));
        assert!(CoreError::NothingToRecover { page: 3 }.to_string().contains("page 3"));
    }
}
