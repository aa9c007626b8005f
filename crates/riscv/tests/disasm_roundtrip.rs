//! Round-trip coverage for the disassembler: every opcode the assembler can
//! emit must decode, re-encode to the identical word, and disassemble into
//! text the assembler accepts back to the same word. This is what makes the
//! §3.4 debug dumps trustworthy — a listing you cannot reassemble is a
//! listing you cannot trust.

use rosebud_riscv::{assemble, decode, disassemble, encode};

/// One canonical instance of every mnemonic (real and pseudo) the assembler
/// handles. Pseudo-instructions expand to base opcodes, so this sweeps every
/// encodable instruction form through the decode/disasm/asm loop.
const CANONICAL: &[&str] = &[
    // U/J/I-type primaries
    "lui t0, 8192",
    "lui t1, -1",
    "auipc a0, 16",
    "jal ra, 2048",
    "jal zero, -44",
    "jalr ra, t0, 8",
    "jalr zero, ra, 0",
    // branches (direct and swapped-operand pseudo forms)
    "beq a0, a1, 16",
    "bne a0, a1, -16",
    "blt s0, s1, 32",
    "bge s0, s1, -32",
    "bltu t3, t4, 64",
    "bgeu t3, t4, -64",
    "bgt a0, a1, 16",
    "ble a0, a1, 16",
    "bgtu a0, a1, 16",
    "bleu a0, a1, 16",
    "beqz a0, 8",
    "bnez a1, -8",
    "bltz a2, 12",
    "bgez a3, -12",
    "bgtz a4, 20",
    "blez a5, -20",
    // loads and stores, signed/unsigned, all widths
    "lb a0, 0(sp)",
    "lh a1, 2(sp)",
    "lw a2, 4(sp)",
    "lbu a3, -1(s0)",
    "lhu a4, 6(gp)",
    "sb a0, 0(sp)",
    "sh a1, 2(sp)",
    "sw a2, -4(s0)",
    // ALU immediate (with negative and boundary immediates)
    "addi a0, a1, -2048",
    "addi a0, a1, 2047",
    "slti t0, t1, -5",
    "sltiu t0, t1, 5",
    "xori s2, s3, 255",
    "ori s4, s5, -256",
    "andi s6, s7, 15",
    "slli a0, a0, 1",
    "slli a0, a0, 31",
    "srli a1, a1, 16",
    "srai a2, a2, 7",
    // ALU register
    "add a0, a1, a2",
    "sub t0, t1, t2",
    "sll s0, s1, s2",
    "slt a3, a4, a5",
    "sltu a6, a7, t0",
    "xor t3, t4, t5",
    "srl t6, s0, s1",
    "sra s2, s3, s4",
    "or s5, s6, s7",
    "and s8, s9, s10",
    // M extension
    "mul a0, a1, a2",
    "mulh a3, a4, a5",
    "mulhsu t0, t1, t2",
    "mulhu t3, t4, t5",
    "div s0, s1, s2",
    "divu s3, s4, s5",
    "rem s6, s7, s8",
    "remu s9, s10, s11",
    // system
    "fence",
    "ecall",
    "ebreak",
    "mret",
    "wfi",
    // CSR, register and immediate forms, named and numeric CSRs
    "csrrw t0, mtvec, t1",
    "csrrs t2, mstatus, t3",
    "csrrc t4, mie, t5",
    "csrrwi a0, mscratch, 31",
    "csrrsi a1, mip, 1",
    "csrrci a2, mcause, 0",
    "csrrw zero, 773, t3",
    // pseudo-instructions (expand to the base forms above)
    "nop",
    "li a0, 42",
    "li a1, -1",
    "li a2, 0x02000000",
    "mv a0, a1",
    "not a2, a3",
    "neg a4, a5",
    "seqz a6, a7",
    "snez t0, t1",
    "j 16",
    "jr t0",
    "ret",
    "csrr a0, mcycle",
    "csrw mtvec, t0",
    "csrs mie, t1",
    "csrc mip, t2",
    "csrwi mscratch, 7",
    "csrsi mstatus, 8",
    "csrci mie, 2",
];

#[test]
fn every_assembler_opcode_round_trips_through_the_disassembler() {
    for src in CANONICAL {
        let image = assemble(src).unwrap_or_else(|e| panic!("{src:?} must assemble: {e:?}"));
        let words = image.words();
        assert!(!words.is_empty(), "{src:?} emitted no code");
        for (i, &word) in words.iter().enumerate() {
            let instr =
                decode(word).unwrap_or_else(|e| panic!("{src:?} word {i} must decode: {e:?}"));
            assert_eq!(
                encode(instr),
                Ok(word),
                "{src:?} word {i}: encode(decode(w)) must be the identity"
            );
            let text = disassemble(instr);
            // Re-assemble the listing at the same pc offset so pc-relative
            // immediates resolve identically.
            let reasm = assemble(&format!(".org {}\n{text}", 4 * i))
                .unwrap_or_else(|e| panic!("{src:?}: disassembly {text:?} must reassemble: {e:?}"));
            assert_eq!(
                reasm.words().last().copied(),
                Some(word),
                "{src:?}: {text:?} must reassemble to {word:#010x}"
            );
        }
    }
}

#[test]
fn disassembler_output_is_stable_for_key_forms() {
    let check = |src: &str, expect: &str| {
        let word = assemble(src).unwrap().words()[0];
        assert_eq!(disassemble(decode(word).unwrap()), expect, "for {src:?}");
    };
    check("lw a0, 0(t0)", "lw a0, 0(t0)");
    check("addi s0, zero, 0", "addi s0, zero, 0");
    check("beqz a0, -8", "beq a0, zero, -8");
    check("j -44", "jal zero, -44");
    check("ebreak", "ebreak");
}

#[test]
fn subi_is_rejected_with_guidance() {
    let err = assemble("subi a0, a0, 1").expect_err("subi must not assemble");
    let msg = format!("{err:?}");
    assert!(
        msg.contains("does not exist in RV32"),
        "the rejection must explain itself: {msg}"
    );
    assert!(
        msg.contains("addi"),
        "the rejection must point at the fix: {msg}"
    );
}

/// FNV-1a, 64-bit, continued from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Every (opcode, funct3, funct7) under four fixed fills of rd/rs1/rs2, then
/// every value of bits 31:20 under the SYSTEM opcode. The number of words
/// the decoder accepts and a hash over their disassembly are pinned, and
/// each accepted word re-encodes to itself (FENCE to its canonical word:
/// its other bits are don't-care). Any change to what the decoder accepts,
/// what it decodes a word to, or how an instruction is printed shows here.
#[test]
fn exhaustive_decoder_sweep_is_pinned() {
    const SYSTEM: u32 = 0b111_0011;
    const MISC_MEM: u32 = 0b000_1111;
    const FILLS: [(u32, u32, u32); 4] = [(0, 0, 0), (31, 31, 31), (10, 5, 1), (1, 30, 17)];
    let mut words = Vec::new();
    for opcode in 0..128 {
        for funct3 in 0..8 {
            for funct7 in 0..128 {
                for (rd, rs1, rs2) in FILLS {
                    words.push(
                        funct7 << 25 | rs2 << 20 | rs1 << 15 | funct3 << 12 | rd << 7 | opcode,
                    );
                }
            }
        }
    }
    let field_sweep = words.len();
    for bits in 0..4096 {
        for funct3 in 0..8 {
            for (rd, rs1, _) in FILLS {
                words.push(bits << 20 | rs1 << 15 | funct3 << 12 | rd << 7 | SYSTEM);
            }
        }
    }
    let mut accepted = [0usize; 2];
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for (i, &word) in words.iter().enumerate() {
        let Ok(instr) = decode(word) else { continue };
        accepted[usize::from(i >= field_sweep)] += 1;
        let canonical = if word & 0x7f == MISC_MEM {
            MISC_MEM
        } else {
            word
        };
        assert_eq!(encode(instr), Ok(canonical), "{word:#010x} = {instr:?}");
        hash = fnv1a(hash, disassemble(instr).as_bytes());
        hash = fnv1a(hash, b"\n");
    }
    assert_eq!(
        accepted,
        [26_709, 98_308],
        "accepted words (field sweep, SYSTEM sweep)"
    );
    assert_eq!(
        hash, 0x0a65_f925_94d7_10f6,
        "hash over the disassembly of every accepted word"
    );
}
