//! `SparseMem`'s page-granular accessors against the byte-at-a-time
//! implementation they replaced, on random op streams.

use trips_harness::Rng;
use trips_isa::mem::SparseMem;

const PAGE_SIZE: usize = 4096;

/// The reference model: the byte-at-a-time accessors the
/// page-granular ones replaced (one page lookup per byte, wrapping
/// at 2⁶⁴), kept here to be differenced against.
trait ByteAtATime {
    fn ref_read_uint(&self, addr: u64, n: u32) -> u64;
    fn ref_write_uint(&mut self, addr: u64, val: u64, n: u32);
    fn ref_read_bytes(&self, addr: u64, out: &mut [u8]);
    fn ref_write_bytes(&mut self, addr: u64, data: &[u8]);
}

impl ByteAtATime for SparseMem {
    fn ref_read_uint(&self, addr: u64, n: u32) -> u64 {
        (0..n as u64).rev().fold(0, |v, i| (v << 8) | u64::from(self.read_u8(addr.wrapping_add(i))))
    }

    fn ref_write_uint(&mut self, addr: u64, val: u64, n: u32) {
        for i in 0..n as u64 {
            self.write_u8(addr.wrapping_add(i), (val >> (8 * i)) as u8);
        }
    }

    fn ref_read_bytes(&self, addr: u64, out: &mut [u8]) {
        for (i, b) in out.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u64));
        }
    }

    fn ref_write_bytes(&mut self, addr: u64, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), b);
        }
    }
}

/// Mostly short slices, one in eight up to three pages.
fn slice_len(rng: &mut Rng) -> usize {
    let max = if rng.chance(1, 8) { 3 * PAGE_SIZE } else { 64 };
    rng.range_usize(0, max + 1)
}

#[test]
fn page_granular_accessors_match_the_byte_at_a_time_model() {
    // Two memories per implementation, so `diff` and derived `==`
    // have something to disagree about. Addresses cluster around a
    // few page boundaries (straddling, aligned, and the 2^64 wrap)
    // and a page nothing ever writes; a third of the writes store
    // zeros, which must still make their pages resident.
    const BASES: [u64; 5] = [0x1000, 0x7000, 0x2_0000_0000, 0, u64::MAX - 0x3000 + 1];
    for seed in 0..4u64 {
        let mut rng = Rng::new(0x5eed_0000 + seed);
        let mut new = [SparseMem::new(), SparseMem::new()];
        let mut model = [SparseMem::new(), SparseMem::new()];
        for step in 0..1500 {
            let m = rng.range_usize(0, 2);
            let base = BASES[rng.range_usize(0, BASES.len())];
            let addr = match rng.range_u64(0, 3) {
                0 => base,
                1 => base
                    .wrapping_add(rng.range_u64(0, 3) * 0x1000)
                    .wrapping_sub(rng.range_u64(1, 9)),
                _ => base.wrapping_add(rng.range_u64(0, 0x3000)),
            };
            let zero = rng.chance(1, 3);
            match rng.range_u64(0, 4) {
                0 => {
                    let n = rng.range_u64(1, 9) as u32;
                    assert_eq!(new[m].read_uint(addr, n), model[m].ref_read_uint(addr, n));
                }
                1 => {
                    let n = rng.range_u64(1, 9) as u32;
                    let val = if zero { 0 } else { rng.next_u64() };
                    new[m].write_uint(addr, val, n);
                    model[m].ref_write_uint(addr, val, n);
                }
                2 => {
                    let len = slice_len(&mut rng);
                    let (mut a, mut b) = (vec![0xaa; len], vec![0x55; len]);
                    new[m].read_bytes(addr, &mut a);
                    model[m].ref_read_bytes(addr, &mut b);
                    assert_eq!(a, b, "seed {seed} step {step}: read_bytes({addr:#x}, {len})");
                }
                _ => {
                    let len = slice_len(&mut rng);
                    let data: Vec<u8> =
                        (0..len).map(|_| if zero { 0 } else { rng.next_u32() as u8 }).collect();
                    new[m].write_bytes(addr, &data);
                    model[m].ref_write_bytes(addr, &data);
                }
            }
            let at = format!("seed {seed} step {step} ({addr:#x})");
            assert_eq!(new[m], model[m], "{at}: contents or residency diverged");
            assert_eq!(new[m].resident_pages(), model[m].resident_pages(), "{at}");
            assert_eq!(new[0].diff(&new[1], 64), model[0].diff(&model[1], 64), "{at}");
            assert_eq!(new[0] == new[1], model[0] == model[1], "{at}");
        }
    }
}
