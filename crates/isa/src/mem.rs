//! A sparse, paged byte memory shared by the simulators and
//! interpreters.

use std::collections::HashMap;

use crate::image::ProgramImage;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// A sparse 64-bit byte-addressed memory backed by 4 KiB pages.
///
/// Uninitialized bytes read as zero, which matches the behaviour a
/// workload sees from a zero-filled simulation DRAM.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseMem {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl SparseMem {
    /// An empty (all-zero) memory.
    pub fn new() -> SparseMem {
        SparseMem::default()
    }

    /// A memory initialized from a program image.
    pub fn from_image(image: &ProgramImage) -> SparseMem {
        let mut m = SparseMem::new();
        m.load_image(image);
        m
    }

    /// Copies every segment of `image` into memory.
    pub fn load_image(&mut self, image: &ProgramImage) {
        for seg in image.segments() {
            self.write_bytes(seg.base, &seg.data);
        }
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => p[(addr & (PAGE_SIZE as u64 - 1)) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        let page = self.pages.entry(addr >> PAGE_SHIFT).or_insert_with(|| Box::new([0; PAGE_SIZE]));
        page[(addr & (PAGE_SIZE as u64 - 1)) as usize] = val;
    }

    /// Reads `n <= 8` bytes little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `n > 8`.
    pub fn read_uint(&self, addr: u64, n: u32) -> u64 {
        assert!(n <= 8, "read of {n} bytes");
        let mut le = [0u8; 8];
        self.read_bytes(addr, &mut le[..n as usize]);
        u64::from_le_bytes(le)
    }

    /// Writes the low `n <= 8` bytes of `val` little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `n > 8`.
    pub fn write_uint(&mut self, addr: u64, val: u64, n: u32) {
        assert!(n <= 8, "write of {n} bytes");
        self.write_bytes(addr, &val.to_le_bytes()[..n as usize]);
    }

    /// Reads a 64-bit little-endian word.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read_uint(addr, 8)
    }

    /// Writes a 64-bit little-endian word.
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        self.write_uint(addr, val, 8)
    }

    /// Reads `out.len()` bytes, resolving each page the span touches
    /// once. The address space is a ring: an access running past
    /// 2⁶⁴ − 1 continues at address 0.
    pub fn read_bytes(&self, mut addr: u64, mut out: &mut [u8]) {
        while !out.is_empty() {
            let off = (addr & (PAGE_SIZE as u64 - 1)) as usize;
            let (span, rest) = out.split_at_mut(out.len().min(PAGE_SIZE - off));
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(p) => span.copy_from_slice(&p[off..off + span.len()]),
                None => span.fill(0),
            }
            addr = addr.wrapping_add(span.len() as u64);
            out = rest;
        }
    }

    /// Writes a byte slice (same page-span walk and wrap-around as
    /// [`SparseMem::read_bytes`]); every page touched becomes resident.
    pub fn write_bytes(&mut self, mut addr: u64, mut data: &[u8]) {
        while !data.is_empty() {
            let off = (addr & (PAGE_SIZE as u64 - 1)) as usize;
            let (span, rest) = data.split_at(data.len().min(PAGE_SIZE - off));
            let page =
                self.pages.entry(addr >> PAGE_SHIFT).or_insert_with(|| Box::new([0; PAGE_SIZE]));
            page[off..off + span.len()].copy_from_slice(span);
            addr = addr.wrapping_add(span.len() as u64);
            data = rest;
        }
    }

    /// Number of resident pages (for tests and stats).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Byte addresses whose contents differ between the two memories,
    /// in address order, up to `max` entries.
    ///
    /// This is a *semantic* comparison: uninitialized bytes read as
    /// zero, so a page resident in only one memory counts only its
    /// nonzero bytes — unlike derived `==`, which would flag a page
    /// that was written with zeros against one never touched.
    pub fn diff(&self, other: &SparseMem, max: usize) -> Vec<u64> {
        const ZERO: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
        let mut keys: Vec<u64> = self.pages.keys().chain(other.pages.keys()).copied().collect();
        keys.sort_unstable();
        keys.dedup();
        let mut out = Vec::new();
        for k in keys {
            let a = self.pages.get(&k).map_or(&ZERO, |p| &**p);
            let b = other.pages.get(&k).map_or(&ZERO, |p| &**p);
            if a == b {
                continue;
            }
            for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                if x != y {
                    out.push((k << PAGE_SHIFT) | i as u64);
                    if out.len() >= max {
                        return out;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_and_roundtrip() {
        let mut m = SparseMem::new();
        assert_eq!(m.read_u64(0xdead_beef), 0);
        m.write_u64(0x1000, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(0x1000), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u8(0x1000), 0xef, "little endian");
        assert_eq!(m.read_uint(0x1004, 4), 0x0123_4567);
    }

    #[test]
    fn cross_page_access() {
        let mut m = SparseMem::new();
        m.write_u64(0xffc, u64::MAX);
        assert_eq!(m.read_u64(0xffc), u64::MAX);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn an_access_straddling_the_top_of_the_address_space_wraps_to_zero() {
        let mut m = SparseMem::new();
        m.write_u64(0xffff_ffff_ffff_fffc, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(0xffff_ffff_ffff_fffc), 0x1122_3344_5566_7788);
        assert_eq!(m.read_uint(0, 4), 0x1122_3344, "the high half landed at address 0");
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn subword_writes_preserve_neighbors() {
        let mut m = SparseMem::new();
        m.write_u64(0, u64::MAX);
        m.write_uint(2, 0, 2);
        assert_eq!(m.read_u64(0), 0xffff_ffff_0000_ffff);
    }

    #[test]
    fn image_loading() {
        let mut img = ProgramImage::new();
        img.add_segment(0x2000, vec![1, 2, 3, 4]);
        let m = SparseMem::from_image(&img);
        assert_eq!(m.read_uint(0x2000, 4), 0x0403_0201);
    }
}
