//! Disassembly of decoded instructions, for debug dumps and round-trip tests.

use crate::isa::{mnemonic, CsrSrc, Instr};

/// Renders `instr` as assembly text (ABI register names, decimal immediates).
///
/// The output parses back through the assembler to the same instruction, a
/// property the test suite verifies for randomly generated instructions.
/// The one exception is an `OpImm` with [`crate::AluOp::Sub`], which prints
/// as the `subi` RV32 lacks and the assembler refuses.
///
/// # Examples
///
/// ```
/// use rosebud_riscv::{decode, disassemble};
/// let text = disassemble(decode(0x02a0_0513).unwrap());
/// assert_eq!(text, "addi a0, zero, 42");
/// ```
pub fn disassemble(instr: Instr) -> String {
    let name = mnemonic(instr);
    match instr {
        Instr::Lui { rd, imm } | Instr::Auipc { rd, imm } | Instr::Jal { rd, imm } => {
            format!("{name} {rd}, {imm}")
        }
        Instr::Jalr { rd, rs1, imm } | Instr::OpImm { rd, rs1, imm, .. } => {
            format!("{name} {rd}, {rs1}, {imm}")
        }
        Instr::Branch { rs1, rs2, imm, .. } => format!("{name} {rs1}, {rs2}, {imm}"),
        Instr::Load { rd, rs1, imm, .. } => format!("{name} {rd}, {imm}({rs1})"),
        Instr::Store { rs1, rs2, imm, .. } => format!("{name} {rs2}, {imm}({rs1})"),
        Instr::Op { rd, rs1, rs2, .. } | Instr::MulDiv { rd, rs1, rs2, .. } => {
            format!("{name} {rd}, {rs1}, {rs2}")
        }
        Instr::Csr {
            rd,
            csr,
            src: CsrSrc::Reg(rs1),
            ..
        } => format!("{name} {rd}, {csr}, {rs1}"),
        Instr::Csr {
            rd,
            csr,
            src: CsrSrc::Imm(v),
            ..
        } => format!("{name} {rd}, {csr}, {v}"),
        Instr::Fence | Instr::Ecall | Instr::Ebreak | Instr::Mret | Instr::Wfi => name.to_string(),
    }
}

/// Disassembles a word image into `(address, word, text)` rows — the debug
/// dump the host-side tooling prints when inspecting a halted RPU (§3.4).
pub fn disassemble_image(base: u32, words: &[u32]) -> Vec<(u32, u32, String)> {
    words
        .iter()
        .enumerate()
        .map(|(i, &word)| {
            let addr = base + (i as u32) * 4;
            let text = match crate::isa::decode(word) {
                Ok(instr) => disassemble(instr),
                Err(_) => format!(".word 0x{word:08x}"),
            };
            (addr, word, text)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::isa::{decode, Reg};

    #[test]
    fn disassembly_reassembles_identically() {
        let source = "
            lui t0, 16
            auipc t1, 0
            addi a0, zero, -7
            slti a1, a0, 3
            srai a2, a1, 4
            add a3, a1, a2
            sub a4, a3, a0
            mulhu a5, a4, a3
            lw s0, 8(sp)
            sb s1, -1(gp)
            jalr ra, t0, 4
            fence
            ecall
            wfi
        ";
        let image = assemble(source).unwrap();
        for &word in image.words() {
            let instr = decode(word).unwrap();
            let text = disassemble(instr);
            let re = assemble(&text).unwrap();
            assert_eq!(re.words().len(), 1, "{text}");
            assert_eq!(decode(re.words()[0]).unwrap(), instr, "{text}");
        }
    }

    /// `subi` is not RV32, but `Instr` can say it: it prints, and the
    /// assembler refuses the text with its `addi` guidance.
    #[test]
    fn sub_immediate_disassembles_as_subi() {
        let instr = Instr::OpImm {
            op: crate::isa::AluOp::Sub,
            rd: Reg(10),
            rs1: Reg(11),
            imm: 4,
        };
        let text = disassemble(instr);
        assert_eq!(text, "subi a0, a1, 4");
        assert!(assemble(&text).unwrap_err().message.contains("addi"));
    }

    #[test]
    fn image_dump_marks_data_words() {
        let image = assemble(".word 0xffffffff\nnop").unwrap();
        let dump = disassemble_image(0x100, image.words());
        assert_eq!(dump[0].2, ".word 0xffffffff");
        assert_eq!(dump[1].0, 0x104);
        assert_eq!(dump[1].2, "addi zero, zero, 0");
        let _ = Reg::ZERO;
    }
}
