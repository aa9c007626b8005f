//! The decoded-instruction cache: a dense predecoded mirror of instruction
//! memory.
//!
//! The interpreter's hot path would re-decode the same instruction words
//! every time the core revisits a PC, even though firmware images are tiny
//! and almost never change. This cache holds one entry per instruction-memory
//! word, indexed directly by word address, and **every entry is always
//! valid**: it is what [`decode`] makes of the word in memory right now — a
//! [`Fetched::Decoded`] instruction, or, for a word that does not decode,
//! the raw [`Fetched::Word`], which the core decodes again and faults on
//! with the exact `pc`/`word` pair the uncached path reports. A fetch is
//! therefore one compare and one array read ([`DecodeCache::get`]). It is a
//! pure host-side optimisation: cycle accounting, fault behaviour, and
//! architectural state are byte-identical with the cache on or off.
//!
//! Correctness rests on the owner re-decoding every write: any store that
//! overlaps instruction memory — from the core itself, the host debug
//! interface, or a firmware reload — calls [`DecodeCache::refresh`] over the
//! bytes it touched, with the memory as it now stands.

use crate::cpu::Fetched;
use crate::isa::decode;

/// Hit/miss/re-decode counters of a [`RamBus`](crate::RamBus)'s cache
/// (host-visible diagnostics; they have no architectural effect).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCacheStats {
    /// Fetches answered from a slot.
    pub(crate) hits: u64,
    /// Fetches outside the slots (a misaligned or out-of-range PC), which
    /// took the uncached word load.
    pub(crate) misses: u64,
    /// Word slots re-decoded by stores or reloads.
    pub invalidations: u64,
}

/// The entry for instruction word `word`: decoded, or kept raw when it does
/// not decode so the core faults on it exactly as without the cache.
#[inline]
fn entry(word: u32) -> Fetched {
    decode(word).map_or(Fetched::Word(word), Fetched::Decoded)
}

/// A decoded-instruction cache covering one instruction memory starting at
/// address 0, one always-valid slot per 32-bit word.
#[derive(Debug, Clone)]
pub struct DecodeCache {
    slots: Vec<Fetched>,
    refreshed: u64,
}

impl DecodeCache {
    /// A cache covering `imem_bytes` of zeroed instruction memory at
    /// address 0.
    pub fn new(imem_bytes: usize) -> Self {
        Self {
            slots: vec![entry(0); imem_bytes / 4],
            refreshed: 0,
        }
    }

    /// `true` when `pc` is a word-aligned address inside the covered range.
    /// Misaligned fetches (`jalr` only clears bit 0, so `pc % 4 == 2` is
    /// architecturally reachable) take the uncached path.
    #[inline]
    pub(crate) fn covers(&self, pc: u32) -> bool {
        self.get(pc).is_some()
    }

    /// The entry for the word at `pc`, or `None` when `pc` is misaligned or
    /// past the covered range. One compare: rotating the two alignment bits
    /// to the top turns a misaligned `pc` into an index past any slot.
    #[inline]
    pub fn get(&self, pc: u32) -> Option<Fetched> {
        self.slots.get(pc.rotate_right(2) as usize).copied()
    }

    /// The decoded instruction at `pc`, when `pc` is covered and its word
    /// decodes.
    pub(crate) fn instr(&self, pc: u32) -> Option<crate::Instr> {
        match self.get(pc)? {
            Fetched::Decoded(instr) => Some(instr),
            _ => None,
        }
    }

    /// Re-decodes every word slot overlapped by a write of `len` bytes at
    /// `addr` (a sub-word write re-decodes the whole containing word) from
    /// `mem`, the instruction memory as it stands after the write.
    pub fn refresh(&mut self, mem: &[u8], addr: u32, len: usize) {
        let first = (addr >> 2) as usize;
        let end = ((addr as usize + len.max(1) + 3) >> 2).min(self.slots.len());
        for slot in first..end {
            let at = slot * 4;
            let word = u32::from_le_bytes(mem[at..at + 4].try_into().expect("4-byte slice"));
            self.slots[slot] = entry(word);
            self.refreshed += 1;
        }
    }

    /// Decodes an image of `words` at byte address `base` into the slots it
    /// covers (the analyzer's predecode, which has no memory behind it).
    pub(crate) fn predecode(&mut self, base: u32, words: &[u32]) {
        for (i, &w) in words.iter().enumerate() {
            let slot = (base as usize >> 2) + i;
            if base & 3 == 0 && slot < self.slots.len() {
                self.slots[slot] = entry(w);
            }
        }
    }

    /// Word slots re-decoded by [`DecodeCache::refresh`] so far.
    pub(crate) fn refreshed(&self) -> u64 {
        self.refreshed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::isa::Instr;

    fn bytes(words: &[u32]) -> Vec<u8> {
        let mut mem: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        mem.resize(1024, 0);
        mem
    }

    #[test]
    fn predecode_then_hit() {
        let image = assemble("addi a0, zero, 1\nebreak").unwrap();
        let mut c = DecodeCache::new(1024);
        c.predecode(0, image.words());
        assert!(c.instr(0).is_some());
        assert_eq!(c.instr(4), Some(Instr::Ebreak));
    }

    #[test]
    fn a_byte_write_re_decodes_its_containing_word() {
        let image = assemble("addi a0, zero, 1\nebreak").unwrap();
        let mut mem = bytes(image.words());
        let mut c = DecodeCache::new(1024);
        c.refresh(&mem, 0, 8);
        mem[5] = 0xff; // byte write into the second word
        c.refresh(&mem, 5, 1);
        assert!(c.instr(0).is_some());
        assert_eq!(
            c.get(4),
            Some(entry(u32::from_le_bytes(mem[4..8].try_into().unwrap())))
        );
        assert_eq!(c.refreshed(), 3);
    }

    #[test]
    fn a_straddling_write_re_decodes_both_words() {
        let image = assemble("addi a0, zero, 1\naddi a0, a0, 1\nebreak").unwrap();
        let mut mem = bytes(image.words());
        let mut c = DecodeCache::new(1024);
        c.refresh(&mem, 0, 12);
        // A 4-byte write at offset 2 touches words 0 and 1.
        mem[2..6].copy_from_slice(&[0; 4]);
        c.refresh(&mem, 2, 4);
        assert_eq!(c.refreshed(), 5);
        assert_eq!(
            c.get(0),
            Some(entry(u32::from_le_bytes(mem[0..4].try_into().unwrap())))
        );
        assert_eq!(
            c.get(4),
            Some(entry(u32::from_le_bytes(mem[4..8].try_into().unwrap())))
        );
        assert_eq!(c.instr(8), Some(Instr::Ebreak));
    }

    #[test]
    fn misaligned_or_past_the_end_pc_is_not_covered() {
        let c = DecodeCache::new(1024);
        assert!(c.covers(0));
        assert!(c.covers(1020));
        for pc in [1, 2, 3, 1022, 1024, u32::MAX - 1] {
            assert!(!c.covers(pc), "pc {pc:#x}");
        }
    }

    #[test]
    fn undecodable_words_stay_raw() {
        let mut c = DecodeCache::new(64);
        c.predecode(0, &[0x0000_0000, 0xffff_ffff]);
        assert_eq!(c.get(0), Some(Fetched::Word(0)));
        assert_eq!(c.get(4), Some(Fetched::Word(0xffff_ffff)));
        assert_eq!(
            c.get(8),
            Some(Fetched::Word(0)),
            "zeroed memory is raw zero"
        );
    }
}
