//! The chip model, and the build-time generator for the chip database.
//!
//! This crate has no dependencies, so everything that needs the model can
//! sit on top of it — `rd-flash`'s `build.rs`, `rd-flash` itself (which
//! re-exports the model modules, so the rest of the workspace reaches them
//! as `rd_flash::…`), and the `chips-codegen` lint binary. It has two
//! halves:
//!
//! * **The model** (`src/model/`): [`params`] — the `ChipParams`
//!   coefficient set, its `check` and the [`params::COEFFICIENTS`] table;
//!   [`state`] — cell states, the Gray map, read references; [`fidelity`] —
//!   the tier enum and its codecs; [`math`] — Gaussian tails and the
//!   one-draw binomial; [`analytic`] — the closed-form RBER model every
//!   mitigation result in the paper rests on.
//! * **The database generator** (this file). The chip database lives in
//!   `chips/vendors/*.ron` — one file per (anonymized) vendor, each
//!   declaring named NAND parts as a full `ChipParams` plus chip-level
//!   metadata and **calibration anchors** (headline RBER operating points
//!   from the read disturb / SSD-error-characterization papers).
//!   `rd-flash`'s `build.rs` calls [`load_dir`], [`validate`] and [`emit`]
//!   to generate the typed `rd_flash::chips` accessors into
//!   `OUT_DIR/chip_db.rs`; the `chips-codegen --check` binary runs the same
//!   parse + validation standalone, so CI can lint the database (with
//!   line/column diagnostics) without building the workspace.
//!
//! The parser is a hand-rolled RON *subset* — structs `(field: value, ...)`,
//! lists `[...]`, strings, numbers, booleans, and `//` comments — matching
//! the repo's no-external-deps house style. Anything fancier (enums with
//! payloads, maps, raw strings) is rejected with a located diagnostic.
//!
//! Per-chip validation is `ChipParams::check`, the gate the runtime uses;
//! on top of it come the database-level invariants only this crate can
//! see: name uniqueness across vendor files, exactly one default chip,
//! anchor monotonicity, and agreement between each anchor and
//! [`analytic::AnalyticModel`] within a log-scale tolerance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::path::Path;

// The model's sources sit together under `model/` but are mounted at the
// crate root: `rd-flash` re-exports them at *its* root, so a path such as
// `crate::params::ChipParams` reads the same in either crate.
#[path = "model/analytic.rs"]
pub mod analytic;
#[path = "model/fidelity.rs"]
pub mod fidelity;
#[path = "model/math.rs"]
pub mod math;
#[path = "model/params.rs"]
pub mod params;
#[path = "model/state.rs"]
pub mod state;

use analytic::AnalyticModel;
use fidelity::ReadFidelity;
use params::{ChipParams, StateParams, COEFFICIENTS, NOMINAL_VPASS};
use state::VoltageRefs;

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

/// One chip entry of a vendor file: the model parameters plus
/// database-level metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipDef {
    /// Unique chip name (`--chip` selector), kebab-case.
    pub name: String,
    /// One-line human description (process node, cell type, role).
    pub description: String,
    /// Whether this chip is the repository default (exactly one per DB).
    pub default: bool,
    /// Provisioned ECC capability line (tolerable RBER) for this part.
    pub ecc_capability_rber: f64,
    /// The part's model parameters, default fidelity tier included.
    pub params: ChipParams,
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

    fn req_str(&mut self, name: &str) -> Result<String, Diag> {
        let v = self.get(name)?;
        self.str_of(v, name)
    }

    fn req_f64(&mut self, name: &str) -> Result<f64, Diag> {
        let v = self.get(name)?;
        self.f64_of(v, name)
    }

    fn req_u64(&mut self, name: &str) -> Result<u64, Diag> {
        let v = self.get(name)?;
        self.u64_of(v, name)
    }

    fn req_f64_list(&mut self, name: &str) -> Result<Vec<f64>, Diag> {
        let v = self.get(name)?;
        self.f64_list_of(v, name)
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

fn parse_chip(file: &str, v: &SpannedValue) -> Result<ChipDef, Diag> {
    let mut f = Fields::of(file, v, "chip")?;
    let name = f.req_str("name")?;
    let description = f.req_str("description")?;
    let default = match f.get_opt("default") {
        Some(v) => f.bool_of(v, "default")?,
        None => false,
    };
    let fidelity = {
        let v = f.get("fidelity")?;
        let s = f.str_of(v, "fidelity")?;
        // The database spells tiers out; the CLI's short aliases stay CLI.
        s.parse::<ReadFidelity>().ok().filter(|tier| tier.as_str() == s).ok_or_else(|| {
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
            let (mean, sigma) = (sf.req_f64("mean")?, sf.req_f64("sigma")?);
            sf.finish()?;
            out.push(StateParams { mean, sigma });
        }
        out
    };
    let refs = {
        let v = f.get("refs")?;
        VoltageRefs::try_from_levels(&f.f64_list_of(v, "refs")?)
            .map_err(|e| f.diag(v.line, v.col, format!("field `refs`: {e}")))?
    };
    let retry_shifts = f.req_f64_list("retry_shifts")?;
    let reread_va_raises = f.req_f64_list("reread_va_raises")?;
    let anchors = {
        let v = f.get("anchors")?;
        let items = f.list_of(v, "anchors")?;
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let mut af = Fields::of(file, item, "anchor")?;
            let anchor = AnchorDef {
                pe: af.req_u64("pe")?,
                days: af.req_f64("days")?,
                reads: af.req_u64("reads")?,
                vpass: af.req_f64("vpass")?,
                rber: af.req_f64("rber")?,
            };
            af.finish()?;
            out.push(anchor);
        }
        out
    };
    let ecc_capability_rber = f.req_f64("ecc_capability_rber")?;
    let mut params = ChipParams {
        states,
        refs,
        min_vpass: f.req_f64("min_vpass")?,
        fidelity,
        retry_shifts,
        reread_va_raises,
        // Every coefficient is a required field, read next.
        ..ChipParams::default()
    };
    for c in COEFFICIENTS {
        (c.set)(&mut params, f.req_f64(c.name)?);
    }
    f.finish()?;
    Ok(ChipDef { name, description, default, ecc_capability_rber, params, anchors })
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
    let vendor = f.req_str("vendor")?;
    let chips = {
        let v = f.get("chips")?;
        let items = f.list_of(v, "chips")?;
        items.iter().map(|item| parse_chip(file, item)).collect::<Result<Vec<_>, _>>()?
    };
    f.finish()?;
    Ok(VendorFile { vendor, chips })
}

// ---------------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------------

/// Reads and parses one vendor file.
///
/// # Errors
///
/// Returns the I/O error, or the first parse diagnostic, as
/// `file:line:col: message`.
pub fn load_file(path: &Path) -> Result<VendorFile, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_vendor_file(&src, &path.display().to_string()).map_err(|d| d.to_string())
}

/// Reads and parses every `*.ron` file directly under `dir`, in file-name
/// order (the order `build.rs` and the lint binary must agree on).
///
/// # Errors
///
/// Returns the first I/O error or parse diagnostic.
pub fn load_dir(dir: &Path) -> Result<Vec<VendorFile>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "ron"))
        .collect();
    paths.sort();
    paths.iter().map(|p| load_file(p)).collect()
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

fn validate_chip(c: &ChipDef) -> Result<(), String> {
    if c.name.is_empty()
        || !c.name.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
    {
        return Err(format!("chip name `{}` must be non-empty kebab-case", c.name));
    }
    c.params.check()?;
    if !(c.ecc_capability_rber > 0.0 && c.ecc_capability_rber < 0.1) {
        return Err(format!("ecc_capability_rber {} outside (0, 0.1)", c.ecc_capability_rber));
    }
    if c.anchors.is_empty() {
        return Err("at least one calibration anchor is required".into());
    }
    let model = AnalyticModel::from_chip(&c.params, ANCHOR_WORDLINES);
    for a in &c.anchors {
        if !(a.rber > 0.0 && a.rber < 1.0) {
            return Err(format!("anchor rber {} outside (0, 1)", a.rber));
        }
        if !(a.vpass >= c.params.min_vpass && a.vpass <= NOMINAL_VPASS) {
            return Err(format!(
                "anchor vpass {} outside the chip's [{}, {NOMINAL_VPASS}] range",
                a.vpass, c.params.min_vpass
            ));
        }
        if a.days < 0.0 {
            return Err(format!("anchor days {} must be non-negative", a.days));
        }
        let got = model.rber(a.pe, a.days, a.reads, a.vpass);
        let err = (got.log10() - a.rber.log10()).abs();
        if err > ANCHOR_TOL_LOG10 {
            return Err(format!(
                "anchor (pe={}, days={}, reads={}, vpass={}) declares rber {:.3e} but the \
                 closed-form model gives {:.3e} ({:.2} decades apart, tolerance {})",
                a.pe, a.days, a.reads, a.vpass, a.rber, got, err, ANCHOR_TOL_LOG10
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
    // `{:?}` always includes a `.` or an exponent for finite floats, so the
    // token is a float literal in Rust and a number in RON.
    format!("{x:?}")
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
        let p = &c.params;
        out.push_str("                states: vec![\n");
        for s in &p.states {
            out.push_str(&format!(
                "                    StateParams {{ mean: {}, sigma: {} }},\n",
                lit(s.mean),
                lit(s.sigma)
            ));
        }
        out.push_str("                ],\n");
        out.push_str(&format!(
            "                refs: VoltageRefs::from_levels(&[{}]),\n",
            lit_list(p.refs.levels())
        ));
        out.push_str(&format!("                min_vpass: {},\n", lit(p.min_vpass)));
        out.push_str(&format!("                fidelity: ReadFidelity::{:?},\n", p.fidelity));
        for coeff in COEFFICIENTS {
            out.push_str(&format!("                {}: {},\n", coeff.name, lit((coeff.get)(p))));
        }
        out.push_str(&format!(
            "                retry_shifts: vec![{}],\n",
            lit_list(&p.retry_shifts)
        ));
        out.push_str(&format!(
            "                reread_va_raises: vec![{}],\n",
            lit_list(&p.reread_va_raises)
        ));
        out.push_str("            },\n        },\n");
    }
    out.push_str("        _ => panic!(\"chip index {index} out of range\"),\n    }\n}\n");
    out
}

// ---------------------------------------------------------------------------
// RON writer (round-trip testing and `--fmt` style output)
// ---------------------------------------------------------------------------

/// Serializes a vendor file back to the RON subset [`parse_vendor_file`]
/// accepts. `parse(to_ron(f)) == f` for every representable file — the
/// round-trip property the codegen test suite checks.
pub fn to_ron(vf: &VendorFile) -> String {
    let mut out = String::new();
    out.push_str("(\n");
    out.push_str(&format!("    vendor: {:?},\n", vf.vendor));
    out.push_str("    chips: [\n");
    for c in &vf.chips {
        let p = &c.params;
        out.push_str("        (\n");
        out.push_str(&format!("            name: {:?},\n", c.name));
        out.push_str(&format!("            description: {:?},\n", c.description));
        if c.default {
            out.push_str("            default: true,\n");
        }
        out.push_str(&format!("            fidelity: {:?},\n", p.fidelity.as_str()));
        out.push_str(&format!(
            "            ecc_capability_rber: {},\n",
            lit(c.ecc_capability_rber)
        ));
        out.push_str("            states: [\n");
        for s in &p.states {
            out.push_str(&format!(
                "                (mean: {}, sigma: {}),\n",
                lit(s.mean),
                lit(s.sigma)
            ));
        }
        out.push_str("            ],\n");
        out.push_str(&format!("            refs: [{}],\n", lit_list(p.refs.levels())));
        out.push_str(&format!("            min_vpass: {},\n", lit(p.min_vpass)));
        for coeff in COEFFICIENTS {
            out.push_str(&format!("            {}: {},\n", coeff.name, lit((coeff.get)(p))));
        }
        out.push_str(&format!("            retry_shifts: [{}],\n", lit_list(&p.retry_shifts)));
        out.push_str(&format!(
            "            reread_va_raises: [{}],\n",
            lit_list(&p.reread_va_raises)
        ));
        out.push_str("            anchors: [\n");
        for a in &c.anchors {
            out.push_str(&format!(
                "                (pe: {}, days: {}, reads: {}, vpass: {}, rber: {}),\n",
                a.pe,
                lit(a.days),
                a.reads,
                lit(a.vpass),
                lit(a.rber)
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
            ecc_capability_rber: 1.0e-3,
            params: ChipParams::default(),
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
        let model = AnalyticModel::from_chip(&chip.params, ANCHOR_WORDLINES);
        let anchor = |reads| AnchorDef {
            reads,
            rber: model.rber(8_000, 0.0, reads, NOMINAL_VPASS),
            ..chip.anchors[0]
        };
        chip.anchors = vec![anchor(100), anchor(0)];
        let vf = VendorFile { vendor: "vendor-t".into(), chips: vec![chip] };
        let problems = validate(&[vf]).unwrap_err();
        assert!(problems[0].contains("sorted"), "{problems:?}");
    }

    #[test]
    fn per_chip_validation_is_the_runtime_check() {
        let mut chip = mlc_chip("t-mlc", true);
        chip.params.outlier_scale = 0.0;
        let err = chip.params.check().unwrap_err();
        let vf = VendorFile { vendor: "vendor-t".into(), chips: vec![chip] };
        assert_eq!(validate(&[vf]).unwrap_err(), [format!("vendor-t/t-mlc: {err}")]);
    }

    /// A reference list `VoltageRefs` cannot hold is a located diagnostic
    /// on the `refs` field, not the constructor's panic.
    #[test]
    fn unrepresentable_refs_are_a_diagnostic() {
        let good =
            to_ron(&VendorFile { vendor: "vendor-t".into(), chips: vec![mlc_chip("t-mlc", true)] });
        let refs_line = good.lines().position(|l| l.trim_start().starts_with("refs:")).unwrap();
        let sixteen = (1..=16).map(|i| format!("{i}.0")).collect::<Vec<_>>().join(", ");
        for (refs, needle) in [
            ("", "need 1..=15 references, got 0"),
            (sixteen.as_str(), "need 1..=15 references, got 16"),
            ("100.0, 100.0, 355.0", "strictly increasing"),
            ("225.0, 100.0, 355.0", "strictly increasing"),
        ] {
            let bad = good.replace("refs: [100.0, 225.0, 355.0]", &format!("refs: [{refs}]"));
            assert_ne!(bad, good);
            let err = parse_vendor_file(&bad, "refs.ron").unwrap_err();
            assert!(err.msg.contains("field `refs`") && err.msg.contains(needle), "{err}");
            assert_eq!((err.line as usize, err.col), (refs_line + 1, 19), "{err}");
        }
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
