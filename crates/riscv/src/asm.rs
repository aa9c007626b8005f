//! A two-pass RV32IM assembler.
//!
//! The paper's firmware is C compiled with riscv-gcc; in this reproduction
//! the hand-tuned firmware (forwarder, firewall) is written directly in
//! assembly — the paper itself notes that at these packet rates firmware is
//! hand-counted cycles anyway ("the minimum time for our packet forwarder to
//! read a descriptor and send it back is 16 cycles", §6.1).
//!
//! Supports the full RV32IM instruction set, the common pseudo-instructions
//! (`li`, `la`, `mv`, `j`, `call`, `ret`, `beqz`, `csrw`, …), labels,
//! `#`/`//` comments, and the directives `.word`, `.half`, `.byte`,
//! `.ascii`, `.asciz`, `.space`, `.align`, `.equ`, and `.org`. Sub-word
//! data directives pad their extent to a word boundary so code that follows
//! stays aligned; `.align N` pads to a 2^N-byte boundary with `nop` words,
//! as GNU `as` does in a RISC-V code section.

use std::collections::BTreeMap;
use std::fmt;

use crate::cpu::csr;
use crate::isa::{encode, template, AluOp, BranchOp, CsrOp, CsrSrc, Instr, Reg};

/// The widest span an image may lay out, in bytes. The paper's memory map
/// (Appendix B) gives code the window below `DMEM_BASE` = 0x80_0000, so no
/// loadable program is wider; a layout past it is refused before a word is
/// allocated, whatever `.space` or `.org` asked for.
const MAX_IMAGE_BYTES: u32 = 0x80_0000;

/// `nop` (`addi x0, x0, 0`): the instruction and `.align`'s fill.
const NOP: Instr = Instr::OpImm {
    op: AluOp::Add,
    rd: Reg::ZERO,
    rs1: Reg::ZERO,
    imm: 0,
};

/// An assembled program image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    base: u32,
    words: Vec<u32>,
    symbols: BTreeMap<String, u32>,
}

impl Image {
    /// An image from what [`assemble`] would have produced: the load
    /// address, the words in memory order, and the symbol table — how a
    /// recorded firmware load is rebuilt without its source.
    pub fn from_parts(
        base: u32,
        words: Vec<u32>,
        symbols: impl IntoIterator<Item = (String, u32)>,
    ) -> Self {
        Self {
            base,
            words,
            symbols: symbols.into_iter().collect(),
        }
    }

    /// The load address of the first word.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// The assembled 32-bit words, in memory order.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// The image as little-endian bytes.
    pub fn bytes(&self) -> Vec<u8> {
        self.words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// Size in bytes.
    pub fn size_bytes(&self) -> u32 {
        (self.words.len() * 4) as u32
    }

    /// Iterates over every symbol (labels and `.equ` constants) as
    /// `(name, value)` pairs, in unspecified order.
    pub fn symbols(&self) -> impl Iterator<Item = (&str, u32)> {
        self.symbols.iter().map(|(n, v)| (n.as_str(), *v))
    }
}

/// A 1-based source position (line and byte column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pos {
    /// 1-based line number.
    pub(crate) line: usize,
    /// 1-based byte column of the statement, label, or directive at fault.
    pub(crate) col: usize,
}

/// An assembly error with its 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the source.
    pub line: usize,
    /// 1-based byte column in the source line.
    pub col: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for AsmError {}

/// Assembles `source` at base address 0.
///
/// # Errors
///
/// Returns [`AsmError`] with the offending line on any syntax error,
/// unknown mnemonic, undefined symbol, or out-of-range immediate.
///
/// # Examples
///
/// ```
/// let image = rosebud_riscv::assemble("
///     li a0, 1
///     ebreak
/// ").unwrap();
/// assert_eq!(image.words().len(), 2);
/// ```
pub fn assemble(source: &str) -> Result<Image, AsmError> {
    assemble_at(source, 0)
}

/// Assembles `source` with the first word at `base`.
///
/// # Errors
///
/// See [`assemble`].
pub(crate) fn assemble_at(source: &str, base: u32) -> Result<Image, AsmError> {
    let statements = parse(source)?;

    // Pass 1: lay out addresses and collect symbols.
    let mut symbols: BTreeMap<String, u32> = BTreeMap::new();
    let mut pc = base;
    let mut placed: Vec<(u32, &Statement)> = Vec::new();
    for stmt in &statements {
        for label in &stmt.labels {
            if symbols.insert(label.name.clone(), pc).is_some() {
                return Err(err(label.pos, format!("duplicate label `{}`", label.name)));
            }
        }
        match &stmt.body {
            Body::Equ(name, expr) => {
                // `.equ` values may only reference already-defined symbols.
                let value = eval(expr, &symbols, stmt.pos)?;
                if symbols.insert(name.clone(), value as u32).is_some() {
                    // A silent last-write-wins here once let two firmware
                    // constants shadow each other; reject it exactly like a
                    // duplicate label.
                    return Err(err(
                        stmt.pos,
                        format!("`.equ {name}` redefines an existing symbol"),
                    ));
                }
            }
            Body::Org(expr) => {
                let value = eval(expr, &symbols, stmt.pos)?;
                let target = u32::try_from(value)
                    .map_err(|_| err(stmt.pos, format!(".org {value} is not an address")))?;
                if target < pc {
                    return Err(err(stmt.pos, format!(".org 0x{target:x} moves backwards")));
                }
                pc = target;
            }
            Body::None => {}
            body => {
                placed.push((pc, stmt));
                pc = pc
                    .checked_add(body_size(body, pc, stmt.pos)?)
                    .filter(|end| end - base <= MAX_IMAGE_BYTES)
                    .ok_or_else(|| {
                        let mib = MAX_IMAGE_BYTES >> 20;
                        err(stmt.pos, format!("layout passes the {mib} MiB code window"))
                    })?;
            }
        }
    }

    // Pass 2: emit words.
    let mut words: Vec<u32> = Vec::new();
    let emit_at = |words: &mut Vec<u32>, addr: u32, word: u32| {
        let index = ((addr - base) / 4) as usize;
        if words.len() <= index {
            words.resize(index + 1, 0);
        }
        words[index] = word;
    };
    fn emit_bytes(words: &mut Vec<u32>, base: u32, addr: u32, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            let off = (addr - base) as usize + i;
            let index = off / 4;
            if words.len() <= index {
                words.resize(index + 1, 0);
            }
            let mut lanes = words[index].to_le_bytes();
            lanes[off % 4] = b;
            words[index] = u32::from_le_bytes(lanes);
        }
    }
    for (addr, stmt) in placed {
        match &stmt.body {
            Body::Instr(mnemonic, operands) => {
                let instrs = lower(mnemonic, operands, addr, &symbols, stmt.pos)?;
                for (i, instr) in instrs.iter().enumerate() {
                    let word = encode(*instr).map_err(|e| err(stmt.pos, e.to_string()))?;
                    emit_at(&mut words, addr + (i as u32) * 4, word);
                }
            }
            Body::Word(exprs) => {
                for (i, expr) in exprs.iter().enumerate() {
                    let value = eval(expr, &symbols, stmt.pos)? as u32;
                    emit_at(&mut words, addr + (i as u32) * 4, value);
                }
            }
            Body::Data(unit, exprs) => {
                let mut bytes = Vec::with_capacity(exprs.len() * *unit as usize);
                for expr in exprs {
                    let value = eval(expr, &symbols, stmt.pos)?;
                    match unit {
                        1 => {
                            if !(-128..256).contains(&value) {
                                return Err(err(
                                    stmt.pos,
                                    format!("byte value {value} out of range"),
                                ));
                            }
                            bytes.push(value as u8);
                        }
                        _ => {
                            if !(-32768..65536).contains(&value) {
                                return Err(err(
                                    stmt.pos,
                                    format!("half value {value} out of range"),
                                ));
                            }
                            bytes.extend_from_slice(&(value as u16).to_le_bytes());
                        }
                    }
                }
                emit_bytes(&mut words, base, addr, &bytes);
            }
            Body::Ascii(bytes) => {
                emit_bytes(&mut words, base, addr, bytes);
            }
            Body::Space(bytes) => {
                let end = addr + bytes;
                if end > base + (words.len() as u32) * 4 {
                    // Zero fill happens implicitly via resize on the next emit;
                    // force the vector to cover the space.
                    let index = ((end - base).div_ceil(4)) as usize;
                    if words.len() < index {
                        words.resize(index, 0);
                    }
                }
            }
            Body::Align(power) => {
                let nop = encode(NOP).expect("nop encodes");
                for at in (addr..addr + align_padding(addr, *power)).step_by(4) {
                    emit_at(&mut words, at, nop);
                }
            }
            Body::Equ(..) | Body::Org(..) | Body::None => unreachable!("not placed"),
        }
    }

    Ok(Image {
        base,
        words,
        symbols,
    })
}

fn err(pos: Pos, message: impl Into<String>) -> AsmError {
    AsmError {
        line: pos.line,
        col: pos.col,
        message: message.into(),
    }
}

#[derive(Debug, Clone)]
struct Label {
    name: String,
    pos: Pos,
}

#[derive(Debug, Clone)]
struct Statement {
    pos: Pos,
    labels: Vec<Label>,
    body: Body,
}

#[derive(Debug, Clone)]
enum Body {
    None,
    Instr(String, Vec<String>),
    Word(Vec<Expr>),
    /// Sub-word data: unit size in bytes (1 or 2) plus the values.
    Data(u32, Vec<Expr>),
    /// Raw string bytes (`.ascii` / `.asciz`).
    Ascii(Vec<u8>),
    Space(u32),
    /// `.align N`: `nop` fill up to the next 2^N-byte boundary.
    Align(u32),
    Equ(String, Expr),
    Org(Expr),
}

#[derive(Debug, Clone)]
enum Expr {
    Lit(i64),
    Sym(String, i64),
}

fn parse(source: &str) -> Result<Vec<Statement>, AsmError> {
    // Skips ASCII whitespace within `raw[from..to]`, returning the new start.
    fn eat_ws(raw: &str, mut from: usize, to: usize) -> usize {
        while from < to && raw.as_bytes()[from].is_ascii_whitespace() {
            from += 1;
        }
        from
    }

    let mut statements = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let line = idx + 1;
        // Byte range of the effective text once comments are stripped;
        // columns index into the *raw* line so diagnostics stay accurate.
        let mut end = raw.len();
        if let Some(at) = raw.find('#') {
            end = end.min(at);
        }
        if let Some(at) = raw.find("//") {
            end = end.min(at);
        }
        while end > 0 && raw.as_bytes()[end - 1].is_ascii_whitespace() {
            end -= 1;
        }
        let mut start = eat_ws(raw, 0, end);
        let mut labels = Vec::new();
        while let Some(colon) = raw[start..end].find(':') {
            let head = raw[start..start + colon].trim_end();
            if head.is_empty() || !is_ident(head) {
                break;
            }
            labels.push(Label {
                name: head.to_string(),
                pos: Pos {
                    line,
                    col: start + 1,
                },
            });
            start = eat_ws(raw, start + colon + 1, end);
        }
        let pos = Pos {
            line,
            col: start + 1,
        };
        let text = &raw[start..end];
        let body = if text.is_empty() {
            Body::None
        } else if let Some(rest) = text.strip_prefix('.') {
            parse_directive(rest, pos)?
        } else {
            let (mnemonic, rest) = match text.find(char::is_whitespace) {
                Some(at) => (&text[..at], text[at..].trim()),
                None => (text, ""),
            };
            let operands = split_operands(rest);
            Body::Instr(mnemonic.to_ascii_lowercase(), operands)
        };
        if !labels.is_empty() || !matches!(body, Body::None) {
            statements.push(Statement { pos, labels, body });
        }
    }
    Ok(statements)
}

fn parse_directive(rest: &str, pos: Pos) -> Result<Body, AsmError> {
    let (name, args) = match rest.find(char::is_whitespace) {
        Some(at) => (&rest[..at], rest[at..].trim()),
        None => (rest, ""),
    };
    match name {
        "word" => {
            let exprs = split_operands(args)
                .iter()
                .map(|a| parse_expr(a, pos))
                .collect::<Result<Vec<_>, _>>()?;
            if exprs.is_empty() {
                return Err(err(pos, ".word needs at least one value"));
            }
            Ok(Body::Word(exprs))
        }
        "byte" | "half" => {
            let unit = if name == "byte" { 1 } else { 2 };
            let exprs = split_operands(args)
                .iter()
                .map(|a| parse_expr(a, pos))
                .collect::<Result<Vec<_>, _>>()?;
            if exprs.is_empty() {
                return Err(err(pos, format!(".{name} needs at least one value")));
            }
            Ok(Body::Data(unit, exprs))
        }
        "ascii" | "asciz" => {
            let text = args.trim();
            let inner = text
                .strip_prefix('"')
                .and_then(|t| t.strip_suffix('"'))
                .ok_or_else(|| err(pos, format!(".{name} needs a quoted string")))?;
            let mut bytes = Vec::with_capacity(inner.len() + 1);
            let mut chars = inner.chars();
            while let Some(c) = chars.next() {
                if c == '\\' {
                    match chars.next() {
                        Some('n') => bytes.push(b'\n'),
                        Some('t') => bytes.push(b'\t'),
                        Some('0') => bytes.push(0),
                        Some('\\') => bytes.push(b'\\'),
                        Some('"') => bytes.push(b'"'),
                        other => {
                            return Err(err(pos, format!("bad escape \\{other:?}")));
                        }
                    }
                } else {
                    let mut buf = [0u8; 4];
                    bytes.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                }
            }
            if name == "asciz" {
                bytes.push(0);
            }
            Ok(Body::Ascii(bytes))
        }
        "space" => {
            let n = args
                .parse::<u32>()
                .ok()
                .and_then(|n| n.checked_next_multiple_of(4))
                .ok_or_else(|| err(pos, format!("bad .space size `{args}`")))?;
            Ok(Body::Space(n))
        }
        "align" => {
            let n: u32 = args
                .parse()
                .ok()
                .filter(|&n| n < 32)
                .ok_or_else(|| err(pos, format!("bad .align value `{args}`")))?;
            Ok(Body::Align(n))
        }
        "equ" => {
            let parts = split_operands(args);
            if parts.len() != 2 {
                return Err(err(pos, ".equ needs `name, value`"));
            }
            Ok(Body::Equ(parts[0].clone(), parse_expr(&parts[1], pos)?))
        }
        "org" => Ok(Body::Org(parse_expr(args, pos)?)),
        other => Err(err(pos, format!("unknown directive .{other}"))),
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
        && !s.chars().next().unwrap().is_ascii_digit()
}

fn split_operands(s: &str) -> Vec<String> {
    if s.trim().is_empty() {
        return Vec::new();
    }
    s.split(',').map(|p| p.trim().to_string()).collect()
}

fn parse_expr(s: &str, pos: Pos) -> Result<Expr, AsmError> {
    let s = s.trim();
    if let Some(value) = parse_int(s) {
        return Ok(Expr::Lit(value));
    }
    // symbol, symbol+lit, symbol-lit
    for (at, sign) in s
        .char_indices()
        .skip(1)
        .filter(|(_, c)| *c == '+' || *c == '-')
    {
        let (sym, lit) = s.split_at(at);
        let sym = sym.trim();
        let lit = lit[1..].trim();
        if is_ident(sym) {
            if let Some(mut value) = parse_int(lit) {
                if sign == '-' {
                    value = -value;
                }
                return Ok(Expr::Sym(sym.to_string(), value));
            }
        }
    }
    if is_ident(s) {
        return Ok(Expr::Sym(s.to_string(), 0));
    }
    Err(err(pos, format!("cannot parse expression `{s}`")))
}

fn parse_int(s: &str) -> Option<i64> {
    let s = s.trim();
    let (neg, s) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let value = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else if let Some(bin) = s.strip_prefix("0b") {
        i64::from_str_radix(bin, 2).ok()?
    } else if s.chars().all(|c| c.is_ascii_digit()) && !s.is_empty() {
        s.parse().ok()?
    } else {
        return None;
    };
    Some(if neg { -value } else { value })
}

fn eval(expr: &Expr, symbols: &BTreeMap<String, u32>, pos: Pos) -> Result<i64, AsmError> {
    match expr {
        Expr::Lit(v) => Ok(*v),
        Expr::Sym(name, offset) => {
            let value = symbols
                .get(name)
                .ok_or_else(|| err(pos, format!("undefined symbol `{name}`")))?;
            i64::from(*value)
                .checked_add(*offset)
                .ok_or_else(|| err(pos, format!("`{name}{offset:+}` overflows")))
        }
    }
}

/// Bytes from `addr` up to the next multiple of 2^`power`.
fn align_padding(addr: u32, power: u32) -> u32 {
    addr.wrapping_neg() & ((1 << power) - 1)
}

/// The bytes `body` lays out when placed at `pc`.
fn body_size(body: &Body, pc: u32, pos: Pos) -> Result<u32, AsmError> {
    Ok(match body {
        Body::Instr(mnemonic, operands) => instr_size(mnemonic, operands),
        Body::Word(exprs) => (exprs.len() * 4) as u32,
        Body::Data(unit, exprs) => ((exprs.len() as u32 * unit).div_ceil(4)) * 4,
        Body::Ascii(bytes) => (bytes.len() as u32).div_ceil(4) * 4,
        Body::Space(bytes) => *bytes,
        Body::Align(power) => align_padding(pc, *power),
        Body::Equ(..) | Body::Org(..) | Body::None => {
            return Err(err(pos, "internal: unsized body"))
        }
    })
}

/// `li`/`la` may expand to two instructions; everything else is one.
fn instr_size(mnemonic: &str, operands: &[String]) -> u32 {
    match mnemonic {
        "li" | "la" => {
            if let Some(op) = operands.get(1) {
                if let Some(value) = parse_int(op) {
                    if (-2048..2048).contains(&value) {
                        return 4;
                    }
                }
            }
            8
        }
        _ => 4,
    }
}

fn reg_op(operands: &[String], idx: usize, pos: Pos) -> Result<Reg, AsmError> {
    let name = operands
        .get(idx)
        .ok_or_else(|| err(pos, format!("missing operand {idx}")))?;
    Reg::parse(name).ok_or_else(|| err(pos, format!("bad register `{name}`")))
}

fn imm_op(
    operands: &[String],
    idx: usize,
    symbols: &BTreeMap<String, u32>,
    pos: Pos,
) -> Result<i64, AsmError> {
    let text = operands
        .get(idx)
        .ok_or_else(|| err(pos, format!("missing operand {idx}")))?;
    eval(&parse_expr(text, pos)?, symbols, pos)
}

/// `value` as the type an `Instr` field holds; whether it fits the field's
/// encoding is for `encode` to say.
fn narrow<T: TryFrom<i64>>(value: i64, pos: Pos) -> Result<T, AsmError> {
    T::try_from(value).map_err(|_| err(pos, format!("immediate {value} out of range")))
}

/// Parses `imm(rs)` memory-operand syntax.
fn mem_op(
    operands: &[String],
    idx: usize,
    symbols: &BTreeMap<String, u32>,
    pos: Pos,
) -> Result<(Reg, i32), AsmError> {
    let text = operands
        .get(idx)
        .ok_or_else(|| err(pos, format!("missing operand {idx}")))?;
    let open = text
        .find('(')
        .ok_or_else(|| err(pos, format!("expected `imm(reg)`, got `{text}`")))?;
    let close = open
        + text[open..]
            .rfind(')')
            .ok_or_else(|| err(pos, format!("unclosed `(` in `{text}`")))?;
    let imm_text = text[..open].trim();
    let imm = if imm_text.is_empty() {
        0
    } else {
        narrow(eval(&parse_expr(imm_text, pos)?, symbols, pos)?, pos)?
    };
    let reg = Reg::parse(text[open + 1..close].trim())
        .ok_or_else(|| err(pos, format!("bad register in `{text}`")))?;
    Ok((reg, imm))
}

fn csr_number(name: &str, pos: Pos) -> Result<u16, AsmError> {
    match parse_int(name) {
        Some(number) => narrow(number, pos),
        None => csr::NAMES
            .iter()
            .find(|&&(known, _)| known == name)
            .map(|&(_, number)| number)
            .ok_or_else(|| err(pos, format!("unknown CSR `{name}`"))),
    }
}

/// A `lui`/`auipc` immediate: the upper 20 bits, written unsigned
/// (`0xfffff`) or signed (`-1`).
fn upper(v: i64, pos: Pos) -> Result<i32, AsmError> {
    let wrap = if ((1 << 19)..(1 << 20)).contains(&v) {
        1 << 20
    } else {
        0
    };
    narrow(v - wrap, pos)
}

fn lower(
    mnemonic: &str,
    operands: &[String],
    pc: u32,
    symbols: &BTreeMap<String, u32>,
    pos: Pos,
) -> Result<Vec<Instr>, AsmError> {
    use Instr::*;
    let ops = operands;
    let reg = |idx| reg_op(ops, idx, pos);
    let int = |idx| -> Result<i32, AsmError> { narrow(imm_op(ops, idx, symbols, pos)?, pos) };
    // The offset from `pc` to a branch or jump target.
    let target = |idx| -> Result<i32, AsmError> {
        let delta = imm_op(ops, idx, symbols, pos)?.saturating_sub(i64::from(pc));
        narrow(delta, pos)
    };
    let mem = |idx| mem_op(ops, idx, symbols, pos);
    let csr = |idx: usize| {
        let name = ops
            .get(idx)
            .ok_or_else(|| err(pos, "missing CSR operand"))?;
        csr_number(name, pos)
    };

    if let Some(base) = template(mnemonic) {
        return Ok(vec![match base {
            Lui { .. } => Lui {
                rd: reg(0)?,
                imm: upper(imm_op(ops, 1, symbols, pos)?, pos)?,
            },
            Auipc { .. } => Auipc {
                rd: reg(0)?,
                imm: upper(imm_op(ops, 1, symbols, pos)?, pos)?,
            },
            // `jal label` or `jal rd, label`.
            Jal { .. } if ops.len() == 1 => Jal {
                rd: Reg::RA,
                imm: target(0)?,
            },
            Jal { .. } => Jal {
                rd: reg(0)?,
                imm: target(1)?,
            },
            // `jalr rs`, `jalr rd, imm(rs)`, or `jalr rd, rs, imm`.
            Jalr { .. } if ops.len() == 1 => Jalr {
                rd: Reg::RA,
                rs1: reg(0)?,
                imm: 0,
            },
            Jalr { .. } if ops.len() == 2 && ops[1].contains('(') => {
                let (rs1, imm) = mem(1)?;
                Jalr {
                    rd: reg(0)?,
                    rs1,
                    imm,
                }
            }
            Jalr { .. } => Jalr {
                rd: reg(0)?,
                rs1: reg(1)?,
                imm: int(2)?,
            },
            Branch { op, .. } => Branch {
                op,
                rs1: reg(0)?,
                rs2: reg(1)?,
                imm: target(2)?,
            },
            Load { op, .. } => {
                let (rs1, imm) = mem(1)?;
                Load {
                    op,
                    rd: reg(0)?,
                    rs1,
                    imm,
                }
            }
            Store { op, .. } => {
                let (rs1, imm) = mem(1)?;
                Store {
                    op,
                    rs1,
                    rs2: reg(0)?,
                    imm,
                }
            }
            OpImm { op, .. } => OpImm {
                op,
                rd: reg(0)?,
                rs1: reg(1)?,
                imm: int(2)?,
            },
            Op { op, .. } => Op {
                op,
                rd: reg(0)?,
                rs1: reg(1)?,
                rs2: reg(2)?,
            },
            MulDiv { op, .. } => MulDiv {
                op,
                rd: reg(0)?,
                rs1: reg(1)?,
                rs2: reg(2)?,
            },
            Csr {
                op,
                src: CsrSrc::Reg(_),
                ..
            } => Csr {
                op,
                rd: reg(0)?,
                csr: csr(1)?,
                src: CsrSrc::Reg(reg(2)?),
            },
            Csr { op, .. } => Csr {
                op,
                rd: reg(0)?,
                csr: csr(1)?,
                src: CsrSrc::Imm(narrow(imm_op(ops, 2, symbols, pos)?, pos)?),
            },
            Fence | Ecall | Ebreak | Mret | Wfi => base,
        }]);
    }

    // --- pseudo-instructions ---
    let swapped = |op: BranchOp| -> Result<Vec<Instr>, AsmError> {
        let (rs2, rs1) = (reg(0)?, reg(1)?);
        Ok(vec![Branch {
            op,
            rs1,
            rs2,
            imm: target(2)?,
        }])
    };
    let branch_zero = |op: BranchOp, swap: bool| -> Result<Vec<Instr>, AsmError> {
        let r = reg(0)?;
        let (rs1, rs2) = if swap { (Reg::ZERO, r) } else { (r, Reg::ZERO) };
        Ok(vec![Branch {
            op,
            rs1,
            rs2,
            imm: target(1)?,
        }])
    };
    let li_expand = |rd: Reg, value: i64| -> Result<Vec<Instr>, AsmError> {
        let value = value as i32;
        if (-2048..2048).contains(&i64::from(value)) && instr_size(mnemonic, ops) == 4 {
            Ok(vec![OpImm {
                op: AluOp::Add,
                rd,
                rs1: Reg::ZERO,
                imm: value,
            }])
        } else {
            // lui + addi, with the +0x800 carry trick.
            let hi = (value.wrapping_add(0x800)) >> 12;
            let lo = value.wrapping_sub(hi << 12);
            Ok(vec![
                Lui { rd, imm: hi },
                OpImm {
                    op: AluOp::Add,
                    rd,
                    rs1: rd,
                    imm: lo,
                },
            ])
        }
    };
    // `csrw csr, rs` is `csrrw zero, csr, rs`, and so on.
    let csr_write = |op: CsrOp, imm_form: bool| -> Result<Vec<Instr>, AsmError> {
        let csr = csr(0)?;
        let src = if imm_form {
            CsrSrc::Imm(narrow(imm_op(ops, 1, symbols, pos)?, pos)?)
        } else {
            CsrSrc::Reg(reg(1)?)
        };
        Ok(vec![Csr {
            op,
            rd: Reg::ZERO,
            csr,
            src,
        }])
    };

    match mnemonic {
        "bgt" => swapped(BranchOp::Lt),
        "ble" => swapped(BranchOp::Ge),
        "bgtu" => swapped(BranchOp::Ltu),
        "bleu" => swapped(BranchOp::Geu),
        "beqz" => branch_zero(BranchOp::Eq, false),
        "bnez" => branch_zero(BranchOp::Ne, false),
        "bltz" => branch_zero(BranchOp::Lt, false),
        "bgez" => branch_zero(BranchOp::Ge, false),
        "bgtz" => branch_zero(BranchOp::Lt, true),
        "blez" => branch_zero(BranchOp::Ge, true),
        "csrr" => Ok(vec![Csr {
            op: CsrOp::Rs,
            rd: reg(0)?,
            csr: csr(1)?,
            src: CsrSrc::Reg(Reg::ZERO),
        }]),
        "csrw" => csr_write(CsrOp::Rw, false),
        "csrs" => csr_write(CsrOp::Rs, false),
        "csrc" => csr_write(CsrOp::Rc, false),
        "csrwi" => csr_write(CsrOp::Rw, true),
        "csrsi" => csr_write(CsrOp::Rs, true),
        "csrci" => csr_write(CsrOp::Rc, true),
        "nop" => Ok(vec![NOP]),
        "li" | "la" => {
            let rd = reg(0)?;
            let value = imm_op(ops, 1, symbols, pos)?;
            if !(-(1i64 << 31)..(1i64 << 32)).contains(&value) {
                return Err(err(pos, format!("li value {value} does not fit 32 bits")));
            }
            li_expand(rd, value as u32 as i32 as i64)
        }
        "mv" => Ok(vec![OpImm {
            op: AluOp::Add,
            rd: reg(0)?,
            rs1: reg(1)?,
            imm: 0,
        }]),
        "not" => Ok(vec![OpImm {
            op: AluOp::Xor,
            rd: reg(0)?,
            rs1: reg(1)?,
            imm: -1,
        }]),
        "neg" => Ok(vec![Op {
            op: AluOp::Sub,
            rd: reg(0)?,
            rs1: Reg::ZERO,
            rs2: reg(1)?,
        }]),
        "seqz" => Ok(vec![OpImm {
            op: AluOp::Sltu,
            rd: reg(0)?,
            rs1: reg(1)?,
            imm: 1,
        }]),
        "snez" => Ok(vec![Op {
            op: AluOp::Sltu,
            rd: reg(0)?,
            rs1: Reg::ZERO,
            rs2: reg(1)?,
        }]),
        "j" => Ok(vec![Jal {
            rd: Reg::ZERO,
            imm: target(0)?,
        }]),
        "jr" => Ok(vec![Jalr {
            rd: Reg::ZERO,
            rs1: reg(0)?,
            imm: 0,
        }]),
        "call" => Ok(vec![Jal {
            rd: Reg::RA,
            imm: target(0)?,
        }]),
        "ret" => Ok(vec![Jalr {
            rd: Reg::ZERO,
            rs1: Reg::RA,
            imm: 0,
        }]),
        other => Err(err(pos, format!("unknown mnemonic `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subi_is_rejected_with_guidance() {
        let e = assemble("subi a0, a0, 4").unwrap_err();
        assert_eq!((e.line, e.col), (1, 1));
        assert!(
            e.message.contains("addi"),
            "error should point at the fix: {e}"
        );
        // The equivalent spelling assembles fine.
        assert!(assemble("addi a0, a0, -4").is_ok());
        // Indentation shifts the reported column to the mnemonic.
        let e = assemble("nop\n    subi a0, a0, 4").unwrap_err();
        assert_eq!((e.line, e.col), (2, 5));
    }

    #[test]
    fn li_small_is_one_instruction() {
        let image = assemble("li a0, 42").unwrap();
        assert_eq!(image.words().len(), 1);
    }

    #[test]
    fn li_large_is_lui_addi() {
        let image = assemble("li a0, 0x12345678").unwrap();
        assert_eq!(image.words().len(), 2);
        // Verify by executing.
        use crate::cpu::{Cpu, RamBus, StepResult};
        let mut bus = RamBus::new(256);
        bus.load_image(0, image.words());
        let mut cpu = Cpu::new(0);
        cpu.step(&mut bus);
        cpu.step(&mut bus);
        assert_eq!(cpu.reg(Reg(10)), 0x12345678);
        let _ = StepResult::Break;
    }

    #[test]
    fn li_negative_carry_case() {
        // 0x7ffff800 has low-12 of 0x800 which sign-extends negative: the
        // carry trick must compensate.
        for value in [0x7fff_f800u32, 0xffff_f800, 0x0000_0800, 0xdead_beef] {
            let image = assemble(&format!("li a0, 0x{value:x}")).unwrap();
            use crate::cpu::{Cpu, RamBus};
            let mut bus = RamBus::new(256);
            bus.load_image(0, image.words());
            let mut cpu = Cpu::new(0);
            for _ in 0..image.words().len() {
                cpu.step(&mut bus);
            }
            assert_eq!(cpu.reg(Reg(10)), value, "li 0x{value:x}");
        }
    }

    #[test]
    fn labels_and_branches() {
        let image = assemble(
            "
            start:
                beq a0, a1, start
                bne a0, a1, end
                nop
            end:
                ebreak
            ",
        )
        .unwrap();
        assert_eq!(image.symbols.get("start").copied(), Some(0));
        assert_eq!(image.symbols.get("end").copied(), Some(12));
        assert_eq!(image.words().len(), 4);
    }

    #[test]
    fn equ_and_word_directives() {
        let image = assemble(
            "
            .equ MAGIC, 0xCAFE
                li a0, MAGIC
            data:
                .word 1, 2, MAGIC
            ",
        )
        .unwrap();
        let data_at = (image.symbols.get("data").copied().unwrap() / 4) as usize;
        assert_eq!(image.words()[data_at], 1);
        assert_eq!(image.words()[data_at + 2], 0xCAFE);
    }

    #[test]
    fn org_places_code() {
        let image = assemble(
            "
                nop
            .org 0x20
            later:
                nop
            ",
        )
        .unwrap();
        assert_eq!(image.symbols.get("later").copied(), Some(0x20));
        assert_eq!(image.words().len(), 9);
    }

    #[test]
    fn duplicate_label_is_error() {
        let error = assemble("x: nop\nx: nop").unwrap_err();
        assert!(error.message.contains("duplicate"));
        assert_eq!((error.line, error.col), (2, 1));
        // The column points at the label itself, not the statement body.
        let error = assemble("dup: nop\n  dup: nop").unwrap_err();
        assert_eq!((error.line, error.col), (2, 3));
    }

    #[test]
    fn equ_redefinition_is_error() {
        let error = assemble(".equ IO, 0x02000000\n.equ IO, 0x03000000").unwrap_err();
        assert!(
            error.message.contains("redefines"),
            "want a dedicated diagnostic, got: {error}"
        );
        assert_eq!((error.line, error.col), (2, 1));
        // Shadowing a label is just as silent a footgun as shadowing an
        // `.equ`; both directions are rejected.
        let error = assemble("start: nop\n.equ start, 4").unwrap_err();
        assert!(error.message.contains("redefines"), "{error}");
        let error = assemble(".equ start, 4\nstart: nop").unwrap_err();
        assert!(error.message.contains("duplicate"), "{error}");
    }

    #[test]
    fn display_renders_line_and_column() {
        let e = assemble("nop\n  j nowhere").unwrap_err();
        assert_eq!(e.to_string(), "line 2:3: undefined symbol `nowhere`");
    }

    #[test]
    fn image_symbols_iterates_labels_and_constants() {
        let image = assemble(".equ IO, 0x02000000\nstart: nop").unwrap();
        let mut syms: Vec<(&str, u32)> = image.symbols().collect();
        syms.sort();
        assert_eq!(syms, vec![("IO", 0x0200_0000), ("start", 0)]);
    }

    /// Hostile layouts and operands are errors on their line, before a word
    /// is allocated: at the parent the first asked for 4 GiB, `.org
    /// 0xffffffff` overflowed `pc`, and the rest panicked in debug builds.
    #[test]
    fn hostile_input_is_an_error_not_a_panic_or_an_allocation() {
        for (source, line) in [
            (".space 4294967292", 1),
            (".space 4294967295", 1),
            (".org 0xffffffff\nnop", 2),
            (".org 0x7ffffff0\nnop", 2),
            (".org -4\nnop", 1),
            ("nop\n.space 8388608", 2),
            ("nop\nx: nop\nli a0, x+9223372036854775807", 3),
            ("nop\nj -9223372036854775807", 2),
            ("lw a0, )(t0", 1),
            ("auipc a0, 0x100000", 1),
        ] {
            let e = assemble(source).unwrap_err();
            assert_eq!(e.line, line, "{source:?}: {e}");
        }
        // The window itself is loadable, and a 20-bit upper immediate may be
        // written unsigned.
        let fill = assemble(".space 8388604\nnop").unwrap();
        assert_eq!(fill.size_bytes(), MAX_IMAGE_BYTES);
        let (unsigned, signed) = ("lui a0, 0x80000", "lui a0, -524288");
        assert_eq!(assemble(unsigned).unwrap(), assemble(signed).unwrap());
    }

    #[test]
    fn undefined_symbol_is_error() {
        let error = assemble("j nowhere").unwrap_err();
        assert!(error.message.contains("undefined"), "{error}");
    }

    #[test]
    fn out_of_range_branch_is_error() {
        let source = "start: nop\n.org 0x4000\nb: beq a0, a1, start".to_string();
        let error = assemble(&source).unwrap_err();
        assert!(error.message.contains("out of range"), "{error}");
    }

    #[test]
    fn bad_register_reports_line() {
        let error = assemble("nop\nadd a0, q7, a1").unwrap_err();
        assert_eq!(error.line, 2);
        assert!(error.message.contains("bad register"));
    }

    #[test]
    fn memory_operand_with_symbolic_offset() {
        let image = assemble(
            "
            .equ OFF, 16
            lw a0, OFF(t0)
            ",
        )
        .unwrap();
        let instr = crate::isa::decode(image.words()[0]).unwrap();
        assert!(matches!(instr, Instr::Load { imm: 16, .. }));
    }

    #[test]
    fn comments_are_stripped() {
        let image = assemble(
            "
            nop # trailing comment
            // whole-line comment
            nop
            ",
        )
        .unwrap();
        assert_eq!(image.words().len(), 2);
    }

    #[test]
    fn symbol_plus_offset() {
        let image = assemble(
            "
            base:
                .word 0, 0, 0
                li a0, base+8
            ",
        )
        .unwrap();
        // li expands to lui+addi (symbol form); executing yields 8.
        use crate::cpu::{Cpu, RamBus};
        let mut bus = RamBus::new(256);
        bus.load_image(0, image.words());
        let mut cpu = Cpu::new(12);
        cpu.step(&mut bus);
        cpu.step(&mut bus);
        assert_eq!(cpu.reg(Reg(10)), 8);
    }
}

#[cfg(test)]
mod data_directive_tests {
    use super::*;

    #[test]
    fn align_pads_with_nops_to_a_power_of_two() {
        let image = assemble("nop\n.align 4\nx: nop").unwrap();
        assert_eq!(image.symbols.get("x").copied(), Some(16));
        assert_eq!(image.words, vec![encode(NOP).unwrap(); 5]);
        // On the boundary already: no fill.
        let image = assemble("nop\n.align 2\ny: nop\n.align 3\nz: nop").unwrap();
        assert_eq!(image.symbols.get("y").copied(), Some(4));
        assert_eq!(image.symbols.get("z").copied(), Some(8));
        assert!(assemble(".align 32").is_err());
    }

    #[test]
    fn byte_directive_packs_little_endian() {
        let image = assemble(
            "
            data:
                .byte 0x11, 0x22, 0x33, 0x44, 0x55
            after:
                nop
            ",
        )
        .unwrap();
        assert_eq!(image.words()[0], 0x4433_2211);
        assert_eq!(image.words()[1] & 0xff, 0x55);
        // 5 bytes pad to 8: `after` is word-aligned.
        assert_eq!(image.symbols.get("after").copied(), Some(8));
    }

    #[test]
    fn half_directive_packs_pairs() {
        let image = assemble(".half 0x1234, 0xBEEF").unwrap();
        assert_eq!(image.words()[0], 0xBEEF_1234);
    }

    #[test]
    fn asciz_appends_nul_and_aligns() {
        let image = assemble(
            "
            msg:
                .asciz \"hi\\n\"
            code:
                nop
            ",
        )
        .unwrap();
        let bytes = image.bytes();
        assert_eq!(&bytes[0..4], b"hi\n\0");
        assert_eq!(image.symbols.get("code").copied(), Some(4));
    }

    #[test]
    fn firmware_can_read_its_own_string_table() {
        use crate::cpu::{Cpu, RamBus, StepResult};
        let image = assemble(
            "
                j start
            table:
                .byte 10, 20, 30, 40
            start:
                li t0, table
                lbu a0, 0(t0)
                lbu a1, 3(t0)
                add a0, a0, a1
                ebreak
            ",
        )
        .unwrap();
        let mut bus = RamBus::new(4096);
        bus.load_image(0, image.words());
        let mut cpu = Cpu::new(0);
        while !matches!(cpu.step(&mut bus), StepResult::Break) {}
        assert_eq!(cpu.reg(Reg::parse("a0").unwrap()), 50);
    }

    #[test]
    fn out_of_range_byte_rejected() {
        let e = assemble(".byte 300").unwrap_err();
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn unquoted_ascii_rejected() {
        let e = assemble(".ascii hello").unwrap_err();
        assert!(e.message.contains("quoted"));
    }
}
