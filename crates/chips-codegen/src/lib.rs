//! Build-time generator for the declarative chip database.
//!
//! The chip database lives in `chips/vendors/*.ron` — one file per
//! (anonymized) vendor, each declaring named NAND parts as the full
//! `rd_flash::ChipParams` coefficient set plus chip-level metadata and
//! **calibration anchors** (headline RBER operating points from the read
//! disturb / SSD-error-characterization papers). This crate is consumed two
//! ways:
//!
//! * `rd-flash`'s `build.rs` calls [`parse_vendor_file`], [`validate`], and
//!   [`emit`] to generate the typed `chips::ChipDb` accessors into
//!   `OUT_DIR/chip_db.rs`;
//! * the `chips-codegen --check` binary runs the same parse + validation
//!   standalone, so CI can lint the database (with line/column diagnostics)
//!   without building the whole workspace.
//!
//! The parser is a hand-rolled RON *subset* — structs `(field: value, ...)`,
//! lists `[...]`, strings, numbers, booleans, and `//` comments — matching
//! the repo's no-external-deps house style. Anything fancier (enums with
//! payloads, maps, raw strings) is rejected with a located diagnostic.
//!
//! Validation mirrors `ChipParams::check` (the source of truth at run time)
//! and additionally checks database-level invariants the flash crate cannot
//! see: name uniqueness across vendor files, exactly one default chip,
//! anchor monotonicity, and agreement between each anchor and the closed
//! form RBER model (re-derived here — see [`model_rber`]) within a log-scale
//! tolerance.

use std::fmt;

/// Nominal pass-through voltage on the papers' normalized scale. Must match
/// `rd_flash::NOMINAL_VPASS`.
pub const NOMINAL_VPASS: f64 = 512.0;

/// Maximum states per cell the flash crate supports (`rd_flash`'s
/// `MAX_STATES`).
pub const MAX_STATES: usize = 16;

/// Wordlines-per-block assumed when deriving the pass-through amplitude for
/// anchor validation (the standard characterization geometry).
pub const ANCHOR_WORDLINES: u32 = 64;

/// Log10 tolerance between an anchor's declared RBER and the closed-form
/// model: anchors must land within `10^0.2 ≈ 1.6x` of the model.
pub const ANCHOR_TOL_LOG10: f64 = 0.2;

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// A located parse or validation diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag {
    /// Source label (file path) the diagnostic refers to.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}: {}", self.file, self.line, self.col, self.msg)
    }
}

impl std::error::Error for Diag {}

// ---------------------------------------------------------------------------
// Data model
// ---------------------------------------------------------------------------

/// One Gaussian programming target: `(mean, sigma)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateDef {
    /// Mean threshold voltage right after programming.
    pub mean: f64,
    /// Standard deviation right after programming.
    pub sigma: f64,
}

/// Read-path fidelity tier a chip defaults to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FidelityDef {
    /// Per-cell Monte-Carlo (MLC only).
    CellExact,
    /// Sampled closed-form model, per-page state.
    PageAnalytic,
    /// Sampled closed-form model, per-block aggregate state.
    BlockAggregate,
}

impl FidelityDef {
    /// The RON spelling of this tier.
    pub fn as_ron(self) -> &'static str {
        match self {
            FidelityDef::CellExact => "cell-exact",
            FidelityDef::PageAnalytic => "page-analytic",
            FidelityDef::BlockAggregate => "block-aggregate",
        }
    }

    fn from_ron(s: &str) -> Option<Self> {
        match s {
            "cell-exact" => Some(FidelityDef::CellExact),
            "page-analytic" => Some(FidelityDef::PageAnalytic),
            "block-aggregate" => Some(FidelityDef::BlockAggregate),
            _ => None,
        }
    }

    /// The `rd_flash::ReadFidelity` variant path emitted into generated code.
    pub fn as_rust(self) -> &'static str {
        match self {
            FidelityDef::CellExact => "ReadFidelity::CellExact",
            FidelityDef::PageAnalytic => "ReadFidelity::PageAnalytic",
            FidelityDef::BlockAggregate => "ReadFidelity::BlockAggregate",
        }
    }
}

/// A calibration anchor: one headline operating point from the papers and
/// the raw bit error rate the model must reproduce there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnchorDef {
    /// Program/erase cycles of wear.
    pub pe: u64,
    /// Days of retention age.
    pub days: f64,
    /// Cumulative read disturb count.
    pub reads: u64,
    /// Pass-through voltage during the reads (normalized scale).
    pub vpass: f64,
    /// Expected raw bit error rate at this operating point.
    pub rber: f64,
}

/// One chip entry of a vendor file — the full `ChipParams` coefficient set
/// plus database-level metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipDef {
    /// Unique chip name (`--chip` selector), kebab-case.
    pub name: String,
    /// One-line human description (process node, cell type, role).
    pub description: String,
    /// Whether this chip is the repository default (exactly one per DB).
    pub default: bool,
    /// Default read-path fidelity tier.
    pub fidelity: FidelityDef,
    /// Provisioned ECC capability line (tolerable RBER) for this part.
    pub ecc_capability_rber: f64,
    /// Programming distributions in threshold-voltage order.
    pub states: Vec<StateDef>,
    /// Read reference voltages (`states.len() - 1` boundaries).
    pub refs: Vec<f64>,
    /// Lowest pass-through voltage the tuning interface accepts.
    pub min_vpass: f64,
    /// `rber_pe = pe_rber_coeff * (PE/1000)^pe_rber_exp`.
    pub pe_rber_coeff: f64,
    /// Exponent of the P/E error law.
    pub pe_rber_exp: f64,
    /// Distribution widening with wear (coefficient).
    pub pe_sigma_widen_coeff: f64,
    /// Distribution widening with wear (exponent).
    pub pe_sigma_widen_exp: f64,
    /// Base retention-loss rate.
    pub retention_rate: f64,
    /// Wear acceleration of retention loss.
    pub retention_pe_exp: f64,
    /// Sub-linear time exponent of retention loss.
    pub retention_time_exp: f64,
    /// Log-normal sigma of per-cell leak rates.
    pub retention_leak_sigma_ln: f64,
    /// Per-read disturb dose coefficient.
    pub rd_alpha: f64,
    /// Tunneling softness of the disturb closed form.
    pub rd_kappa: f64,
    /// Wear exponent of the disturb slope.
    pub rd_pe_exp: f64,
    /// Reference P/E count of the slope law.
    pub rd_pe_ref: f64,
    /// Vpass sensitivity (volts per e-fold).
    pub rd_vpass_lambda: f64,
    /// Pareto tail exponent of disturb susceptibility.
    pub rd_susceptibility_pareto_a: f64,
    /// Cap on the susceptibility factor.
    pub rd_susceptibility_cap: f64,
    /// Extra dose multiplier for direct neighbours of a hammered wordline.
    pub rd_neighbor_boost: f64,
    /// Over-programmed tail probability (top state).
    pub outlier_prob: f64,
    /// Lower edge of the outlier tail.
    pub outlier_base: f64,
    /// Exponential scale of the outlier tail.
    pub outlier_scale: f64,
    /// Hard cap of the outlier tail (below nominal Vpass).
    pub outlier_cap: f64,
    /// Program-interference sigma (added in quadrature).
    pub program_interference_sigma: f64,
    /// Closed-form retention coefficient (analytic tiers).
    pub analytic_ret_coeff: f64,
    /// Closed-form per-read disturb slope at reference wear/nominal Vpass.
    pub analytic_rd_slope: f64,
    /// Closed-form disturb saturation level.
    pub analytic_rd_sat: f64,
    /// Read-retry uniform reference shifts, in sweep order.
    pub retry_shifts: Vec<f64>,
    /// Disturb-aware re-read lowest-boundary raises, in order.
    pub reread_va_raises: Vec<f64>,
    /// Calibration anchors, ordered by `(pe, days, reads)`.
    pub anchors: Vec<AnchorDef>,
}

/// A parsed vendor file: the vendor label plus its chip entries.
#[derive(Debug, Clone, PartialEq)]
pub struct VendorFile {
    /// Vendor label (anonymized, e.g. `"vendor-a"`).
    pub vendor: String,
    /// Chip entries in file order.
    pub chips: Vec<ChipDef>,
}

// ---------------------------------------------------------------------------
// Lexer / parser (RON subset)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    LParen,
    RParen,
    LBracket,
    RBracket,
    Colon,
    Comma,
    Str(String),
    Num(String),
    Ident(String),
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    line: u32,
    col: u32,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    file: &'a str,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str, file: &'a str) -> Self {
        Self { src: src.as_bytes(), pos: 0, line: 1, col: 1, file }
    }

    fn diag(&self, line: u32, col: u32, msg: impl Into<String>) -> Diag {
        Diag { file: self.file.to_string(), line, col, msg: msg.into() }
    }

    fn bump(&mut self) -> Option<u8> {
        let b = *self.src.get(self.pos)?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn tokens(mut self) -> Result<Vec<Spanned>, Diag> {
        let mut out = Vec::new();
        loop {
            // Skip whitespace and `//` comments.
            loop {
                match self.peek() {
                    Some(b) if b.is_ascii_whitespace() => {
                        self.bump();
                    }
                    Some(b'/') if self.src.get(self.pos + 1) == Some(&b'/') => {
                        while let Some(b) = self.peek() {
                            if b == b'\n' {
                                break;
                            }
                            self.bump();
                        }
                    }
                    _ => break,
                }
            }
            let (line, col) = (self.line, self.col);
            let Some(b) = self.peek() else { break };
            let tok = match b {
                b'(' => {
                    self.bump();
                    Tok::LParen
                }
                b')' => {
                    self.bump();
                    Tok::RParen
                }
                b'[' => {
                    self.bump();
                    Tok::LBracket
                }
                b']' => {
                    self.bump();
                    Tok::RBracket
                }
                b':' => {
                    self.bump();
                    Tok::Colon
                }
                b',' => {
                    self.bump();
                    Tok::Comma
                }
                b'"' => {
                    self.bump();
                    let mut s = String::new();
                    loop {
                        match self.bump() {
                            Some(b'"') => break,
                            Some(b'\\') => match self.bump() {
                                Some(b'"') => s.push('"'),
                                Some(b'\\') => s.push('\\'),
                                Some(b'n') => s.push('\n'),
                                other => {
                                    return Err(self.diag(
                                        self.line,
                                        self.col,
                                        format!(
                                            "unsupported string escape {:?}",
                                            other.map(char::from)
                                        ),
                                    ))
                                }
                            },
                            Some(b'\n') | None => {
                                return Err(self.diag(line, col, "unterminated string"))
                            }
                            Some(other) => s.push(char::from(other)),
                        }
                    }
                    Tok::Str(s)
                }
                b if b.is_ascii_digit() || b == b'-' || b == b'+' || b == b'.' => {
                    let mut s = String::new();
                    while let Some(b) = self.peek() {
                        if b.is_ascii_digit()
                            || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-' | b'_')
                        {
                            s.push(char::from(b));
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    Tok::Num(s)
                }
                b if b.is_ascii_alphabetic() || b == b'_' => {
                    let mut s = String::new();
                    while let Some(b) = self.peek() {
                        if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' {
                            s.push(char::from(b));
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    Tok::Ident(s)
                }
                other => {
                    return Err(self.diag(
                        line,
                        col,
                        format!("unexpected character {:?}", char::from(other)),
                    ))
                }
            };
            out.push(Spanned { tok, line, col });
        }
        Ok(out)
    }
}

/// A parsed RON value with its source position.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    /// `(field: value, ...)`
    Struct(Vec<(String, SpannedValue)>),
    /// `[value, ...]`
    List(Vec<SpannedValue>),
    /// `"..."`
    Str(String),
    /// Numeric token, kept as source text (parsed on demand).
    Num(String),
    /// `true` / `false`.
    Bool(bool),
}

#[derive(Debug, Clone, PartialEq)]
struct SpannedValue {
    value: Value,
    line: u32,
    col: u32,
}

struct Parser<'a> {
    toks: Vec<Spanned>,
    pos: usize,
    file: &'a str,
}

impl<'a> Parser<'a> {
    fn diag_at(&self, line: u32, col: u32, msg: impl Into<String>) -> Diag {
        Diag { file: self.file.to_string(), line, col, msg: msg.into() }
    }

    fn diag_here(&self, msg: impl Into<String>) -> Diag {
        let (line, col) = self
            .toks
            .get(self.pos)
            .map(|t| (t.line, t.col))
            .or_else(|| self.toks.last().map(|t| (t.line, t.col)))
            .unwrap_or((1, 1));
        self.diag_at(line, col, msg)
    }

    fn peek(&self) -> Option<&Spanned> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<Spanned> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<Spanned, Diag> {
        match self.bump() {
            Some(t) if t.tok == *want => Ok(t),
            Some(t) => Err(self.diag_at(t.line, t.col, format!("expected {what}"))),
            None => Err(self.diag_here(format!("expected {what}, found end of file"))),
        }
    }

    fn value(&mut self) -> Result<SpannedValue, Diag> {
        let Some(t) = self.bump() else {
            return Err(self.diag_here("expected a value, found end of file"));
        };
        let (line, col) = (t.line, t.col);
        let value = match t.tok {
            Tok::LParen => {
                let mut fields: Vec<(String, SpannedValue)> = Vec::new();
                loop {
                    match self.peek() {
                        Some(Spanned { tok: Tok::RParen, .. }) => {
                            self.bump();
                            break;
                        }
                        Some(Spanned { tok: Tok::Ident(_), .. }) => {
                            let Some(Spanned { tok: Tok::Ident(name), line, col }) = self.bump()
                            else {
                                unreachable!()
                            };
                            if fields.iter().any(|(n, _)| *n == name) {
                                return Err(self.diag_at(
                                    line,
                                    col,
                                    format!("duplicate field `{name}`"),
                                ));
                            }
                            self.expect(&Tok::Colon, "`:` after field name")?;
                            let v = self.value()?;
                            fields.push((name, v));
                            // Optional trailing comma.
                            if let Some(Spanned { tok: Tok::Comma, .. }) = self.peek() {
                                self.bump();
                            }
                        }
                        _ => return Err(self.diag_here("expected field name or `)`")),
                    }
                }
                Value::Struct(fields)
            }
            Tok::LBracket => {
                let mut items = Vec::new();
                loop {
                    match self.peek() {
                        Some(Spanned { tok: Tok::RBracket, .. }) => {
                            self.bump();
                            break;
                        }
                        Some(_) => {
                            items.push(self.value()?);
                            if let Some(Spanned { tok: Tok::Comma, .. }) = self.peek() {
                                self.bump();
                            }
                        }
                        None => return Err(self.diag_here("unclosed `[`")),
                    }
                }
                Value::List(items)
            }
            Tok::Str(s) => Value::Str(s),
            Tok::Num(s) => Value::Num(s),
            Tok::Ident(id) if id == "true" => Value::Bool(true),
            Tok::Ident(id) if id == "false" => Value::Bool(false),
            Tok::Ident(id) => {
                return Err(self.diag_at(line, col, format!("unexpected identifier `{id}`")))
            }
            _ => return Err(self.diag_at(line, col, "expected a value")),
        };
        Ok(SpannedValue { value, line, col })
    }
}

// ---------------------------------------------------------------------------
// Typed extraction
// ---------------------------------------------------------------------------

struct Fields<'a> {
    file: &'a str,
    entries: &'a [(String, SpannedValue)],
    line: u32,
    col: u32,
    taken: Vec<bool>,
}

impl<'a> Fields<'a> {
    fn of(file: &'a str, v: &'a SpannedValue, what: &str) -> Result<Self, Diag> {
        match &v.value {
            Value::Struct(entries) => Ok(Self {
                file,
                entries,
                line: v.line,
                col: v.col,
                taken: vec![false; entries.len()],
            }),
            _ => Err(Diag {
                file: file.to_string(),
                line: v.line,
                col: v.col,
                msg: format!("expected a {what} struct `(...)`"),
            }),
        }
    }

    fn diag(&self, line: u32, col: u32, msg: impl Into<String>) -> Diag {
        Diag { file: self.file.to_string(), line, col, msg: msg.into() }
    }

    fn get(&mut self, name: &str) -> Result<&'a SpannedValue, Diag> {
        for (i, (n, v)) in self.entries.iter().enumerate() {
            if n == name {
                self.taken[i] = true;
                return Ok(v);
            }
        }
        Err(self.diag(self.line, self.col, format!("missing required field `{name}`")))
    }

    fn get_opt(&mut self, name: &str) -> Option<&'a SpannedValue> {
        for (i, (n, v)) in self.entries.iter().enumerate() {
            if n == name {
                self.taken[i] = true;
                return Some(v);
            }
        }
        None
    }

    fn finish(self) -> Result<(), Diag> {
        for (i, (n, v)) in self.entries.iter().enumerate() {
            if !self.taken[i] {
                return Err(self.diag(v.line, v.col, format!("unknown field `{n}`")));
            }
        }
        Ok(())
    }

    fn str_of(&self, v: &SpannedValue, name: &str) -> Result<String, Diag> {
        match &v.value {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(self.diag(v.line, v.col, format!("field `{name}` must be a string"))),
        }
    }

    fn f64_of(&self, v: &SpannedValue, name: &str) -> Result<f64, Diag> {
        match &v.value {
            Value::Num(s) => {
                let cleaned: String = s.chars().filter(|&c| c != '_').collect();
                let x: f64 = cleaned.parse().map_err(|_| {
                    self.diag(v.line, v.col, format!("field `{name}`: invalid number `{s}`"))
                })?;
                if !x.is_finite() {
                    return Err(self.diag(v.line, v.col, format!("field `{name}` must be finite")));
                }
                Ok(x)
            }
            _ => Err(self.diag(v.line, v.col, format!("field `{name}` must be a number"))),
        }
    }

    fn u64_of(&self, v: &SpannedValue, name: &str) -> Result<u64, Diag> {
        match &v.value {
            Value::Num(s) => {
                let cleaned: String = s.chars().filter(|&c| c != '_').collect();
                cleaned.parse().map_err(|_| {
                    self.diag(
                        v.line,
                        v.col,
                        format!("field `{name}` must be a non-negative integer, got `{s}`"),
                    )
                })
            }
            _ => Err(self.diag(v.line, v.col, format!("field `{name}` must be an integer"))),
        }
    }

    fn bool_of(&self, v: &SpannedValue, name: &str) -> Result<bool, Diag> {
        match v.value {
            Value::Bool(b) => Ok(b),
            _ => Err(self.diag(v.line, v.col, format!("field `{name}` must be true or false"))),
        }
    }

    fn f64_list_of(&self, v: &SpannedValue, name: &str) -> Result<Vec<f64>, Diag> {
        match &v.value {
            Value::List(items) => items.iter().map(|item| self.f64_of(item, name)).collect(),
            _ => Err(self.diag(v.line, v.col, format!("field `{name}` must be a list"))),
        }
    }

    fn list_of(&self, v: &'a SpannedValue, name: &str) -> Result<&'a [SpannedValue], Diag> {
        match &v.value {
            Value::List(items) => Ok(items),
            _ => Err(self.diag(v.line, v.col, format!("field `{name}` must be a list"))),
        }
    }
}

macro_rules! req_f64 {
    ($f:expr, $name:literal) => {{
        let v = $f.get($name)?;
        $f.f64_of(v, $name)?
    }};
}

fn parse_chip(file: &str, v: &SpannedValue) -> Result<ChipDef, Diag> {
    let mut f = Fields::of(file, v, "chip")?;
    let name = {
        let v = f.get("name")?;
        f.str_of(v, "name")?
    };
    let description = {
        let v = f.get("description")?;
        f.str_of(v, "description")?
    };
    let default = match f.get_opt("default") {
        Some(v) => f.bool_of(v, "default")?,
        None => false,
    };
    let fidelity = {
        let v = f.get("fidelity")?;
        let s = f.str_of(v, "fidelity")?;
        FidelityDef::from_ron(&s).ok_or_else(|| {
            f.diag(
                v.line,
                v.col,
                format!(
                    "unknown fidelity `{s}` (expected cell-exact, page-analytic, \
                     or block-aggregate)"
                ),
            )
        })?
    };
    let states = {
        let v = f.get("states")?;
        let items = f.list_of(v, "states")?;
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let mut sf = Fields::of(file, item, "state")?;
            let mean = req_f64!(sf, "mean");
            let sigma = req_f64!(sf, "sigma");
            sf.finish()?;
            out.push(StateDef { mean, sigma });
        }
        out
    };
    let refs = {
        let v = f.get("refs")?;
        f.f64_list_of(v, "refs")?
    };
    let retry_shifts = {
        let v = f.get("retry_shifts")?;
        f.f64_list_of(v, "retry_shifts")?
    };
    let reread_va_raises = {
        let v = f.get("reread_va_raises")?;
        f.f64_list_of(v, "reread_va_raises")?
    };
    let anchors = {
        let v = f.get("anchors")?;
        let items = f.list_of(v, "anchors")?;
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let mut af = Fields::of(file, item, "anchor")?;
            let pe = {
                let v = af.get("pe")?;
                af.u64_of(v, "pe")?
            };
            let days = req_f64!(af, "days");
            let reads = {
                let v = af.get("reads")?;
                af.u64_of(v, "reads")?
            };
            let vpass = req_f64!(af, "vpass");
            let rber = req_f64!(af, "rber");
            af.finish()?;
            out.push(AnchorDef { pe, days, reads, vpass, rber });
        }
        out
    };
    let chip = ChipDef {
        name,
        description,
        default,
        fidelity,
        ecc_capability_rber: req_f64!(f, "ecc_capability_rber"),
        states,
        refs,
        min_vpass: req_f64!(f, "min_vpass"),
        pe_rber_coeff: req_f64!(f, "pe_rber_coeff"),
        pe_rber_exp: req_f64!(f, "pe_rber_exp"),
        pe_sigma_widen_coeff: req_f64!(f, "pe_sigma_widen_coeff"),
        pe_sigma_widen_exp: req_f64!(f, "pe_sigma_widen_exp"),
        retention_rate: req_f64!(f, "retention_rate"),
        retention_pe_exp: req_f64!(f, "retention_pe_exp"),
        retention_time_exp: req_f64!(f, "retention_time_exp"),
        retention_leak_sigma_ln: req_f64!(f, "retention_leak_sigma_ln"),
        rd_alpha: req_f64!(f, "rd_alpha"),
        rd_kappa: req_f64!(f, "rd_kappa"),
        rd_pe_exp: req_f64!(f, "rd_pe_exp"),
        rd_pe_ref: req_f64!(f, "rd_pe_ref"),
        rd_vpass_lambda: req_f64!(f, "rd_vpass_lambda"),
        rd_susceptibility_pareto_a: req_f64!(f, "rd_susceptibility_pareto_a"),
        rd_susceptibility_cap: req_f64!(f, "rd_susceptibility_cap"),
        rd_neighbor_boost: req_f64!(f, "rd_neighbor_boost"),
        outlier_prob: req_f64!(f, "outlier_prob"),
        outlier_base: req_f64!(f, "outlier_base"),
        outlier_scale: req_f64!(f, "outlier_scale"),
        outlier_cap: req_f64!(f, "outlier_cap"),
        program_interference_sigma: req_f64!(f, "program_interference_sigma"),
        analytic_ret_coeff: req_f64!(f, "analytic_ret_coeff"),
        analytic_rd_slope: req_f64!(f, "analytic_rd_slope"),
        analytic_rd_sat: req_f64!(f, "analytic_rd_sat"),
        retry_shifts,
        reread_va_raises,
        anchors,
    };
    f.finish()?;
    Ok(chip)
}

/// Parses one vendor file. `file` labels diagnostics (usually the path).
///
/// # Errors
///
/// Returns the first parse or shape error with its line/column.
pub fn parse_vendor_file(src: &str, file: &str) -> Result<VendorFile, Diag> {
    let toks = Lexer::new(src, file).tokens()?;
    let mut p = Parser { toks, pos: 0, file };
    let root = p.value()?;
    if p.pos != p.toks.len() {
        return Err(p.diag_here("trailing content after the vendor struct"));
    }
    let mut f = Fields::of(file, &root, "vendor")?;
    let vendor = {
        let v = f.get("vendor")?;
        f.str_of(v, "vendor")?
    };
    let chips = {
        let v = f.get("chips")?;
        let items = f.list_of(v, "chips")?;
        items.iter().map(|item| parse_chip(file, item)).collect::<Result<Vec<_>, _>>()?
    };
    f.finish()?;
    Ok(VendorFile { vendor, chips })
}

// ---------------------------------------------------------------------------
// Closed-form model mirror (anchor validation)
// ---------------------------------------------------------------------------

/// The closed-form RBER model at one operating point, re-derived from the
/// chip definition exactly as `rd_flash::AnalyticModel::from_chip` does
/// (with [`ANCHOR_WORDLINES`] wordlines per block for the pass-through
/// amplitude).
///
/// This duplicates `rd_flash::analytic` on purpose: `rd-flash` build-depends
/// on this crate, so the dependency cannot point the other way.
/// `rd_flash::chips`'s `anchors_match_the_real_analytic_model` unit test
/// re-checks every anchor against the *real* model, which catches any drift
/// between the two copies.
pub fn model_rber(c: &ChipDef, pe: u64, days: f64, reads: u64, vpass: f64) -> f64 {
    let rber_pe = c.pe_rber_coeff * (pe as f64 / 1000.0).powf(c.pe_rber_exp);
    let retention = if days <= 0.0 {
        0.0
    } else {
        c.analytic_ret_coeff
            * (pe as f64 / 1000.0).powf(c.retention_pe_exp)
            * days.powf(c.retention_time_exp)
    };
    let slope = c.analytic_rd_slope
        * (pe.max(1) as f64 / c.rd_pe_ref).powf(c.rd_pe_exp)
        * ((vpass - NOMINAL_VPASS) / c.rd_vpass_lambda).exp();
    let read_disturb = c.analytic_rd_sat * (slope * reads as f64 / c.analytic_rd_sat).ln_1p();
    let w = ANCHOR_WORDLINES.max(2) as f64;
    let pt_amp = 0.5 * (w - 1.0) * (1.0 / c.states.len() as f64) * c.outlier_prob;
    let drift = 0.5
        * c.outlier_base
        * c.retention_rate
        * (pe as f64 / 1000.0).powf(c.retention_pe_exp)
        * days.max(0.0).powf(c.retention_time_exp);
    let q_cap = (-(c.outlier_cap - c.outlier_base) / c.outlier_scale).exp();
    let exceed =
        ((-(vpass - c.outlier_base + drift) / c.outlier_scale).exp() - q_cap) / (1.0 - q_cap);
    let passthrough = pt_amp * exceed.clamp(0.0, 1.0);
    rber_pe + retention + read_disturb + passthrough
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

fn validate_chip(c: &ChipDef) -> Result<(), String> {
    let n = c.states.len();
    if !(n.is_power_of_two() && (2..=MAX_STATES).contains(&n)) {
        return Err(format!("state count {n} must be a power of two in 2..={MAX_STATES}"));
    }
    if c.fidelity == FidelityDef::CellExact && n != 4 {
        return Err(format!("fidelity cell-exact is MLC-only, chip declares {n} states"));
    }
    if c.name.is_empty()
        || !c.name.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
    {
        return Err(format!("chip name `{}` must be non-empty kebab-case", c.name));
    }
    for w in c.states.windows(2) {
        if w[0].mean >= w[1].mean {
            return Err(format!(
                "state means must be strictly increasing ({} >= {})",
                w[0].mean, w[1].mean
            ));
        }
    }
    for s in &c.states {
        if s.sigma <= 0.0 {
            return Err(format!("state sigma {} must be positive", s.sigma));
        }
    }
    if c.refs.len() != n - 1 {
        return Err(format!("{} refs cannot separate {n} states (need {})", c.refs.len(), n - 1));
    }
    for (i, &v) in c.refs.iter().enumerate() {
        if !(c.states[i].mean < v && v < c.states[i + 1].mean) {
            return Err(format!(
                "ref {i} ({v}) must sit between state means {} and {}",
                c.states[i].mean,
                c.states[i + 1].mean
            ));
        }
    }
    let top = c.states[n - 1];
    if top.mean + 4.0 * top.sigma >= NOMINAL_VPASS {
        return Err(format!(
            "top state ({} + 4*{}) must clear the nominal Vpass {NOMINAL_VPASS}",
            top.mean, top.sigma
        ));
    }
    if !(c.min_vpass > 0.0 && c.min_vpass < NOMINAL_VPASS) {
        return Err(format!("min_vpass {} outside (0, {NOMINAL_VPASS})", c.min_vpass));
    }
    if !(c.outlier_base < c.outlier_cap && c.outlier_cap < NOMINAL_VPASS) {
        return Err(format!(
            "outlier tail [{}, {}] must sit below the nominal Vpass",
            c.outlier_base, c.outlier_cap
        ));
    }
    if !(c.ecc_capability_rber > 0.0 && c.ecc_capability_rber < 0.1) {
        return Err(format!("ecc_capability_rber {} outside (0, 0.1)", c.ecc_capability_rber));
    }
    if c.retry_shifts.is_empty() || c.reread_va_raises.is_empty() {
        return Err("retry_shifts and reread_va_raises must be non-empty".into());
    }
    for coeff in [
        ("pe_rber_coeff", c.pe_rber_coeff),
        ("retention_rate", c.retention_rate),
        ("rd_alpha", c.rd_alpha),
        ("rd_kappa", c.rd_kappa),
        ("rd_pe_ref", c.rd_pe_ref),
        ("rd_vpass_lambda", c.rd_vpass_lambda),
        ("rd_susceptibility_pareto_a", c.rd_susceptibility_pareto_a),
        ("outlier_prob", c.outlier_prob),
        ("outlier_scale", c.outlier_scale),
        ("analytic_ret_coeff", c.analytic_ret_coeff),
        ("analytic_rd_slope", c.analytic_rd_slope),
        ("analytic_rd_sat", c.analytic_rd_sat),
    ] {
        if coeff.1 <= 0.0 {
            return Err(format!("{} must be positive, got {}", coeff.0, coeff.1));
        }
    }
    if c.anchors.is_empty() {
        return Err("at least one calibration anchor is required".into());
    }
    for a in &c.anchors {
        if !(a.rber > 0.0 && a.rber < 1.0) {
            return Err(format!("anchor rber {} outside (0, 1)", a.rber));
        }
        if !(a.vpass >= c.min_vpass && a.vpass <= NOMINAL_VPASS) {
            return Err(format!(
                "anchor vpass {} outside the chip's [{}, {NOMINAL_VPASS}] range",
                a.vpass, c.min_vpass
            ));
        }
        if a.days < 0.0 {
            return Err(format!("anchor days {} must be non-negative", a.days));
        }
        let model = model_rber(c, a.pe, a.days, a.reads, a.vpass);
        let err = (model.log10() - a.rber.log10()).abs();
        if err > ANCHOR_TOL_LOG10 {
            return Err(format!(
                "anchor (pe={}, days={}, reads={}, vpass={}) declares rber {:.3e} but the \
                 closed-form model gives {:.3e} ({:.2} decades apart, tolerance {})",
                a.pe, a.days, a.reads, a.vpass, a.rber, model, err, ANCHOR_TOL_LOG10
            ));
        }
    }
    for w in c.anchors.windows(2) {
        let ka = (w[0].pe, w[0].days.to_bits(), w[0].reads);
        let kb = (w[1].pe, w[1].days.to_bits(), w[1].reads);
        if ka >= kb {
            return Err(format!(
                "anchors must be sorted by (pe, days, reads) without duplicates: \
                 (pe={}, days={}, reads={}) then (pe={}, days={}, reads={})",
                w[0].pe, w[0].days, w[0].reads, w[1].pe, w[1].days, w[1].reads
            ));
        }
        // More wear / age / disturb at the same Vpass never lowers RBER
        // (only comparable when every stress axis is non-decreasing).
        if w[0].vpass == w[1].vpass
            && w[0].pe <= w[1].pe
            && w[0].days <= w[1].days
            && w[0].reads <= w[1].reads
            && w[1].rber < w[0].rber
        {
            return Err(format!(
                "anchor rber must be monotone along the (pe, days, reads) order at fixed \
                 vpass: {:.3e} then {:.3e}",
                w[0].rber, w[1].rber
            ));
        }
    }
    Ok(())
}

/// Validates a set of parsed vendor files as one database.
///
/// # Errors
///
/// Returns a list of human-readable problems (chip-scoped ones are prefixed
/// with `vendor/chip:`). Empty result means the database is sound.
pub fn validate(files: &[VendorFile]) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    let mut vendors: Vec<&str> = Vec::new();
    let mut names: Vec<&str> = Vec::new();
    let mut defaults = 0usize;
    for vf in files {
        if vendors.contains(&vf.vendor.as_str()) {
            problems.push(format!("duplicate vendor label `{}`", vf.vendor));
        }
        vendors.push(&vf.vendor);
        if vf.chips.is_empty() {
            problems.push(format!("vendor `{}` declares no chips", vf.vendor));
        }
        for c in &vf.chips {
            if names.contains(&c.name.as_str()) {
                problems.push(format!("duplicate chip name `{}`", c.name));
            }
            names.push(&c.name);
            if c.default {
                defaults += 1;
            }
            if let Err(e) = validate_chip(c) {
                problems.push(format!("{}/{}: {e}", vf.vendor, c.name));
            }
        }
    }
    match defaults {
        1 => {}
        n => problems.push(format!("exactly one chip must set `default: true`, found {n}")),
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

// ---------------------------------------------------------------------------
// Emitter
// ---------------------------------------------------------------------------

/// Formats an `f64` as a Rust literal that parses back to the identical bit
/// pattern (`{:?}` is Rust's shortest round-trip form).
fn lit(x: f64) -> String {
    let s = format!("{x:?}");
    // `{:?}` always includes a `.` or an exponent for finite floats, so the
    // token is already a float literal.
    s
}

fn lit_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|&x| lit(x)).collect();
    items.join(", ")
}

/// Emits the generated Rust source for the database. The output is included
/// into `rd_flash::chips` (so `ChipSpec`, `CalibrationAnchor`, `ChipParams`,
/// `StateParams`, `VoltageRefs`, and `ReadFidelity` are in scope there).
///
/// Call [`validate`] first; this function assumes a sound database and
/// panics on an empty one.
pub fn emit(files: &[VendorFile]) -> String {
    let mut chips: Vec<(&str, &ChipDef)> = Vec::new();
    for vf in files {
        for c in &vf.chips {
            chips.push((&vf.vendor, c));
        }
    }
    assert!(!chips.is_empty(), "cannot emit an empty chip database");
    // Default chip first: index 0 is the repo default everywhere.
    chips.sort_by_key(|(_, c)| (!c.default, c.name.clone()));
    let default_name = &chips[0].1.name;

    let mut out = String::new();
    out.push_str(
        "// GENERATED by chips-codegen from chips/vendors/*.ron — do not edit.\n\
         // Regenerated on every build; edit the RON database instead.\n\n",
    );
    out.push_str(&format!(
        "/// Names of every chip in the database (the default chip first,\n\
         /// the rest sorted by name).\n\
         pub const NAMES: &[&str] = &[\n{}];\n\n",
        chips.iter().map(|(_, c)| format!("    {:?},\n", c.name)).collect::<String>()
    ));
    out.push_str(&format!(
        "/// Name of the repository default chip (bit-identical to\n\
         /// [`ChipParams::default`]).\n\
         pub const DEFAULT_CHIP: &str = {default_name:?};\n\n"
    ));

    for (i, (_, c)) in chips.iter().enumerate() {
        out.push_str(&format!(
            "static ANCHORS_{i}: &[CalibrationAnchor] = &[\n{}];\n",
            c.anchors
                .iter()
                .map(|a| format!(
                    "    CalibrationAnchor {{ pe_cycles: {}, days: {}, reads: {}, \
                     vpass: {}, rber: {} }},\n",
                    a.pe,
                    lit(a.days),
                    a.reads,
                    lit(a.vpass),
                    lit(a.rber)
                ))
                .collect::<String>()
        ));
    }
    out.push('\n');

    out.push_str(
        "/// Builds the spec at `index` of [`NAMES`]. Prefer [`get`]/[`all`].\n\
         pub(super) fn spec(index: usize) -> ChipSpec {\n    match index {\n",
    );
    for (i, (vendor, c)) in chips.iter().enumerate() {
        out.push_str(&format!(
            "        {i} => ChipSpec {{\n\
             \x20           name: {name:?},\n\
             \x20           vendor: {vendor:?},\n\
             \x20           description: {desc:?},\n\
             \x20           ecc_capability_rber: {ecc},\n\
             \x20           anchors: ANCHORS_{i},\n\
             \x20           params: ChipParams {{\n",
            name = c.name,
            vendor = vendor,
            desc = c.description,
            ecc = lit(c.ecc_capability_rber),
        ));
        out.push_str("                states: vec![\n");
        for s in &c.states {
            out.push_str(&format!(
                "                    StateParams {{ mean: {}, sigma: {} }},\n",
                lit(s.mean),
                lit(s.sigma)
            ));
        }
        out.push_str("                ],\n");
        out.push_str(&format!(
            "                refs: VoltageRefs::from_levels(&[{}]),\n",
            lit_list(&c.refs)
        ));
        out.push_str(&format!("                min_vpass: {},\n", lit(c.min_vpass)));
        out.push_str(&format!("                fidelity: {},\n", c.fidelity.as_rust()));
        for (field, value) in [
            ("pe_rber_coeff", c.pe_rber_coeff),
            ("pe_rber_exp", c.pe_rber_exp),
            ("pe_sigma_widen_coeff", c.pe_sigma_widen_coeff),
            ("pe_sigma_widen_exp", c.pe_sigma_widen_exp),
            ("retention_rate", c.retention_rate),
            ("retention_pe_exp", c.retention_pe_exp),
            ("retention_time_exp", c.retention_time_exp),
            ("retention_leak_sigma_ln", c.retention_leak_sigma_ln),
            ("rd_alpha", c.rd_alpha),
            ("rd_kappa", c.rd_kappa),
            ("rd_pe_exp", c.rd_pe_exp),
            ("rd_pe_ref", c.rd_pe_ref),
            ("rd_vpass_lambda", c.rd_vpass_lambda),
            ("rd_susceptibility_pareto_a", c.rd_susceptibility_pareto_a),
            ("rd_susceptibility_cap", c.rd_susceptibility_cap),
            ("rd_neighbor_boost", c.rd_neighbor_boost),
            ("outlier_prob", c.outlier_prob),
            ("outlier_base", c.outlier_base),
            ("outlier_scale", c.outlier_scale),
            ("outlier_cap", c.outlier_cap),
            ("program_interference_sigma", c.program_interference_sigma),
            ("analytic_ret_coeff", c.analytic_ret_coeff),
            ("analytic_rd_slope", c.analytic_rd_slope),
            ("analytic_rd_sat", c.analytic_rd_sat),
        ] {
            out.push_str(&format!("                {field}: {},\n", lit(value)));
        }
        out.push_str(&format!(
            "                retry_shifts: vec![{}],\n",
            lit_list(&c.retry_shifts)
        ));
        out.push_str(&format!(
            "                reread_va_raises: vec![{}],\n",
            lit_list(&c.reread_va_raises)
        ));
        out.push_str("            },\n        },\n");
    }
    out.push_str("        _ => panic!(\"chip index {index} out of range\"),\n    }\n}\n");
    out
}

// ---------------------------------------------------------------------------
// RON writer (round-trip testing and `--fmt` style output)
// ---------------------------------------------------------------------------

fn ron_f64(x: f64) -> String {
    format!("{x:?}")
}

/// Serializes a vendor file back to the RON subset [`parse_vendor_file`]
/// accepts. `parse(to_ron(f)) == f` for every representable file — the
/// round-trip property the codegen test suite checks.
pub fn to_ron(vf: &VendorFile) -> String {
    let mut out = String::new();
    out.push_str("(\n");
    out.push_str(&format!("    vendor: {:?},\n", vf.vendor));
    out.push_str("    chips: [\n");
    for c in &vf.chips {
        out.push_str("        (\n");
        out.push_str(&format!("            name: {:?},\n", c.name));
        out.push_str(&format!("            description: {:?},\n", c.description));
        if c.default {
            out.push_str("            default: true,\n");
        }
        out.push_str(&format!("            fidelity: {:?},\n", c.fidelity.as_ron()));
        out.push_str(&format!(
            "            ecc_capability_rber: {},\n",
            ron_f64(c.ecc_capability_rber)
        ));
        out.push_str("            states: [\n");
        for s in &c.states {
            out.push_str(&format!(
                "                (mean: {}, sigma: {}),\n",
                ron_f64(s.mean),
                ron_f64(s.sigma)
            ));
        }
        out.push_str("            ],\n");
        out.push_str(&format!(
            "            refs: [{}],\n",
            c.refs.iter().map(|&x| ron_f64(x)).collect::<Vec<_>>().join(", ")
        ));
        for (field, value) in [
            ("min_vpass", c.min_vpass),
            ("pe_rber_coeff", c.pe_rber_coeff),
            ("pe_rber_exp", c.pe_rber_exp),
            ("pe_sigma_widen_coeff", c.pe_sigma_widen_coeff),
            ("pe_sigma_widen_exp", c.pe_sigma_widen_exp),
            ("retention_rate", c.retention_rate),
            ("retention_pe_exp", c.retention_pe_exp),
            ("retention_time_exp", c.retention_time_exp),
            ("retention_leak_sigma_ln", c.retention_leak_sigma_ln),
            ("rd_alpha", c.rd_alpha),
            ("rd_kappa", c.rd_kappa),
            ("rd_pe_exp", c.rd_pe_exp),
            ("rd_pe_ref", c.rd_pe_ref),
            ("rd_vpass_lambda", c.rd_vpass_lambda),
            ("rd_susceptibility_pareto_a", c.rd_susceptibility_pareto_a),
            ("rd_susceptibility_cap", c.rd_susceptibility_cap),
            ("rd_neighbor_boost", c.rd_neighbor_boost),
            ("outlier_prob", c.outlier_prob),
            ("outlier_base", c.outlier_base),
            ("outlier_scale", c.outlier_scale),
            ("outlier_cap", c.outlier_cap),
            ("program_interference_sigma", c.program_interference_sigma),
            ("analytic_ret_coeff", c.analytic_ret_coeff),
            ("analytic_rd_slope", c.analytic_rd_slope),
            ("analytic_rd_sat", c.analytic_rd_sat),
        ] {
            out.push_str(&format!("            {field}: {},\n", ron_f64(value)));
        }
        out.push_str(&format!(
            "            retry_shifts: [{}],\n",
            c.retry_shifts.iter().map(|&x| ron_f64(x)).collect::<Vec<_>>().join(", ")
        ));
        out.push_str(&format!(
            "            reread_va_raises: [{}],\n",
            c.reread_va_raises.iter().map(|&x| ron_f64(x)).collect::<Vec<_>>().join(", ")
        ));
        out.push_str("            anchors: [\n");
        for a in &c.anchors {
            out.push_str(&format!(
                "                (pe: {}, days: {}, reads: {}, vpass: {}, rber: {}),\n",
                a.pe,
                ron_f64(a.days),
                a.reads,
                ron_f64(a.vpass),
                ron_f64(a.rber)
            ));
        }
        out.push_str("            ],\n");
        out.push_str("        ),\n");
    }
    out.push_str("    ],\n)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mlc_chip(name: &str, default: bool) -> ChipDef {
        ChipDef {
            name: name.to_string(),
            description: "test chip".to_string(),
            default,
            fidelity: FidelityDef::CellExact,
            ecc_capability_rber: 1.0e-3,
            states: vec![
                StateDef { mean: 40.0, sigma: 15.0 },
                StateDef { mean: 160.0, sigma: 13.0 },
                StateDef { mean: 290.0, sigma: 13.0 },
                StateDef { mean: 420.0, sigma: 12.0 },
            ],
            refs: vec![100.0, 225.0, 355.0],
            min_vpass: 460.8,
            pe_rber_coeff: 1.6e-5,
            pe_rber_exp: 1.6,
            pe_sigma_widen_coeff: 0.02,
            pe_sigma_widen_exp: 0.7,
            retention_rate: 1.6e-4,
            retention_pe_exp: 1.2,
            retention_time_exp: 0.85,
            retention_leak_sigma_ln: 0.75,
            rd_alpha: 1.1e-7,
            rd_kappa: 25.0,
            rd_pe_exp: 1.45,
            rd_pe_ref: 2000.0,
            rd_vpass_lambda: 4.0,
            rd_susceptibility_pareto_a: 0.85,
            rd_susceptibility_cap: 1.0e5,
            rd_neighbor_boost: 1.5,
            outlier_prob: 7.6e-4,
            outlier_base: 460.0,
            outlier_scale: 12.0,
            outlier_cap: 508.0,
            program_interference_sigma: 2.0,
            analytic_ret_coeff: 2.3e-6,
            analytic_rd_slope: 1.0e-9,
            analytic_rd_sat: 2.0e-2,
            retry_shifts: vec![4.0, 8.0, 12.0, 16.0, -4.0],
            reread_va_raises: vec![10.0, 20.0, 30.0],
            anchors: vec![AnchorDef {
                pe: 8_000,
                days: 0.0,
                reads: 0,
                vpass: NOMINAL_VPASS,
                rber: 4.456e-4,
            }],
        }
    }

    #[test]
    fn ron_round_trips() {
        let vf = VendorFile { vendor: "vendor-t".into(), chips: vec![mlc_chip("t-mlc", true)] };
        let ron = to_ron(&vf);
        let back = parse_vendor_file(&ron, "t.ron").unwrap();
        assert_eq!(back, vf);
    }

    #[test]
    fn parse_reports_line_and_column() {
        let src = "(\n    vendor: \"v\",\n    chips: [\n        (name: 3),\n    ],\n)";
        let err = parse_vendor_file(src, "bad.ron").unwrap_err();
        assert_eq!(err.line, 4, "{err}");
        assert!(err.msg.contains("must be a string"), "{err}");
    }

    #[test]
    fn duplicate_and_unknown_fields_rejected() {
        let err =
            parse_vendor_file("(vendor: \"a\", vendor: \"b\", chips: [])", "d.ron").unwrap_err();
        assert!(err.msg.contains("duplicate field"), "{err}");
        let err = parse_vendor_file("(vendor: \"a\", chips: [], zzz: 1)", "d.ron").unwrap_err();
        assert!(err.msg.contains("unknown field `zzz`"), "{err}");
    }

    #[test]
    fn validation_catches_database_level_problems() {
        let a = VendorFile { vendor: "vendor-a".into(), chips: vec![mlc_chip("dup", true)] };
        let b = VendorFile { vendor: "vendor-b".into(), chips: vec![mlc_chip("dup", true)] };
        let problems = validate(&[a, b]).unwrap_err();
        assert!(problems.iter().any(|p| p.contains("duplicate chip name")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("exactly one chip")), "{problems:?}");
    }

    #[test]
    fn validation_catches_bad_anchor() {
        let mut chip = mlc_chip("t-mlc", true);
        chip.anchors[0].rber = 1.0e-1; // 2+ decades off the model
        let vf = VendorFile { vendor: "vendor-t".into(), chips: vec![chip] };
        let problems = validate(&[vf]).unwrap_err();
        assert!(problems[0].contains("closed-form model"), "{problems:?}");
    }

    #[test]
    fn validation_requires_sorted_anchors() {
        let mut chip = mlc_chip("t-mlc", true);
        let a0 = chip.anchors[0];
        chip.anchors = vec![
            AnchorDef { pe: 8_000, reads: 100, ..a0 },
            AnchorDef {
                pe: 8_000,
                reads: 0,
                rber: model_rber(&chip, 8_000, 0.0, 0, NOMINAL_VPASS),
                ..a0
            },
        ];
        chip.anchors[0].rber = model_rber(&chip, 8_000, 0.0, 100, NOMINAL_VPASS);
        let vf = VendorFile { vendor: "vendor-t".into(), chips: vec![chip] };
        let problems = validate(&[vf]).unwrap_err();
        assert!(problems[0].contains("sorted"), "{problems:?}");
    }

    #[test]
    fn emitted_code_mentions_every_chip_once() {
        let vf = VendorFile {
            vendor: "vendor-t".into(),
            chips: vec![mlc_chip("t-mlc", true), mlc_chip("t-mlc-b", false)],
        };
        validate(std::slice::from_ref(&vf)).unwrap();
        let code = emit(&[vf]);
        assert_eq!(code.matches("\"t-mlc\"").count(), 3, "NAMES + DEFAULT_CHIP + spec entry");
        assert_eq!(code.matches("\"t-mlc-b\"").count(), 2, "NAMES entry + spec entry");
        assert!(code.contains("pub const DEFAULT_CHIP: &str = \"t-mlc\""));
        assert!(code.contains("ANCHORS_0"));
        assert!(code.contains("ReadFidelity::CellExact"));
    }

    #[test]
    fn float_literals_round_trip_exactly() {
        for x in [0.1, 1.0 / 3.0, 4.456e-4, 460.8, 0.9 * NOMINAL_VPASS, f64::MIN_POSITIVE] {
            let s = lit(x);
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{s}");
        }
    }
}
