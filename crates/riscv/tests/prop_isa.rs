//! Property tests on the instruction set: encode/decode identity, the
//! decoder's totality over random words, and assembler/disassembler
//! round-trips.

mod gen;

use gen::{Class, ALL};
use proptest::prelude::*;
use rosebud_riscv::{assemble, decode, disassemble, encode, Instr};

proptest! {
    #[test]
    fn encode_decode_identity(instr in gen::instr(Class::Any, ALL)) {
        prop_assert_eq!(decode(encode(instr).unwrap()).unwrap(), instr);
    }

    #[test]
    fn decoder_never_panics(word in any::<u32>()) {
        let _ = decode(word); // Ok or Err, never a panic
    }

    #[test]
    fn decoded_words_reencode_identically(word in any::<u32>()) {
        if let Ok(instr) = decode(word) {
            // Encoding a decoded instruction reproduces a word that decodes
            // to the same instruction (canonical form; unused bits may
            // differ for fence).
            prop_assert_eq!(decode(encode(instr).unwrap()).unwrap(), instr);
        }
    }

    #[test]
    fn disassembly_reassembles(instr in gen::instr(Class::Any, ALL)) {
        // Branch/jump targets are pc-relative in the text, so skip those
        // (covered by unit tests); everything else must round-trip through
        // text.
        match instr {
            Instr::Branch { .. } | Instr::Jal { .. } => {}
            _ => {
                let text = disassemble(instr);
                let image = assemble(&text)
                    .unwrap_or_else(|e| panic!("`{text}` failed to assemble: {e}"));
                prop_assert_eq!(image.words().len(), 1, "{}", text);
                prop_assert_eq!(decode(image.words()[0]).unwrap(), instr, "{}", text);
            }
        }
    }
}

/// Lines the mutator splices into shipped firmware: every directive and
/// operand form the assembler lays out or range-checks, with `{}` for a
/// literal from [`EDGES`].
const HOSTILE: &[&str] = &[
    ".space {}",
    ".org {}",
    ".word {}",
    ".half {}",
    ".byte {}",
    ".align {}",
    ".equ HOSTILE_EQU, {}",
    "li a0, {}",
    "lui a0, {}",
    "auipc a0, {}",
    "j {}",
    "beq a0, a1, {}",
    "lw a0, {}(t0)",
    "sw a0, {}(t0)",
    "addi a0, a0, {}",
    "slli a0, a0, {}",
    "csrwi mie, {}",
    "jalr ra, {}(a0)",
    "hostile_label: li a0, hostile_label+{}",
];

/// Huge, negative and boundary literals, and a few that do not parse.
const EDGES: &[&str] = &[
    "4294967292",
    "4294967295",
    "0xffffffff",
    "0x7ffffff0",
    "0x800000",
    "8388608",
    "-1",
    "-4",
    "-9223372036854775807",
    "9223372036854775807",
    "99999999999999999999",
    "0x80000",
    "1048576",
    "-2049",
    "0x",
    "-",
];

/// Characters that carry syntax.
const SYNTAX: &[char] = &[
    '(', ')', ':', ',', '+', '-', '.', '#', '"', 'x', '0', '9', ' ', '\\',
];

/// Applies one mutation per `(kind, at, pick)`: splice in a hostile line,
/// delete a line, truncate the program mid-line, or replace a character.
fn mutate(source: &str, edits: &[(u64, u64, u64)]) -> String {
    let mut lines: Vec<Vec<char>> = source.lines().map(|l| l.chars().collect()).collect();
    for &(kind, at, pick) in edits {
        let row = at as usize % (lines.len() + 1);
        let pick = pick as usize;
        match kind % 4 {
            0 => {
                let line =
                    HOSTILE[pick % HOSTILE.len()].replace("{}", EDGES[(pick >> 8) % EDGES.len()]);
                lines.insert(row, line.chars().collect());
            }
            1 if row < lines.len() => {
                lines.remove(row);
            }
            2 if row < lines.len() => {
                let cut = pick % (lines[row].len() + 1);
                lines[row].truncate(cut);
                lines.truncate(row + 1);
            }
            3 if row < lines.len() && !lines[row].is_empty() => {
                let col = pick % lines[row].len();
                lines[row][col] = SYNTAX[(pick >> 8) % SYNTAX.len()];
            }
            _ => {}
        }
    }
    lines
        .iter()
        .map(|l| l.iter().collect::<String>())
        .collect::<Vec<_>>()
        .join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The assembler is the first thing a live `POST /firmware` body
    /// reaches: whatever the text, it answers `Ok` or `Err` — never a
    /// panic (debug builds check every overflow) and never an allocation
    /// past the code window.
    #[test]
    fn mutated_shipped_firmware_assembles_or_errs(
        program in 0usize..7,
        edits in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..8),
    ) {
        let source = rosebud_apps::shipped_firmware().swap_remove(program).1;
        if let Ok(image) = assemble(&mutate(&source, &edits)) {
            prop_assert!(image.size_bytes() <= 0x80_0000);
        }
    }
}
