//! Randomized property tests: every well-formed block survives the
//! binary encode/decode round trip and the validator accepts what the
//! builders produce. (Seeded generation via `trips_harness::Rng`; the
//! environment has no crates.io access so `proptest` is unavailable.)

use trips_harness::Rng;
use trips_isa::*;

fn target(rng: &mut Rng, nbody: u8) -> Target {
    match rng.range_u8(0, 4) {
        0 => Target::None,
        1 => Target::left(rng.range_u8(0, nbody)),
        2 => Target::right(rng.range_u8(0, nbody)),
        _ => Target::write(rng.range_u8(0, 32)),
    }
}

fn g_format(rng: &mut Rng) -> Opcode {
    [
        Opcode::Add,
        Opcode::Sub,
        Opcode::Mul,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Teq,
        Opcode::Tlt,
        Opcode::Fadd,
        Opcode::Fmul,
    ][rng.range_usize(0, 10)]
}

fn inst(rng: &mut Rng, nbody: u8) -> Instruction {
    match rng.range_u8(0, 6) {
        0 => {
            let op = g_format(rng);
            let t0 = target(rng, nbody);
            let t1 = target(rng, nbody);
            Instruction::op(op, [t0, t1])
        }
        1 => {
            let imm = rng.range_i32(-8192, 8192);
            let t = target(rng, nbody);
            Instruction::movi(imm, [t, Target::none()])
        }
        2 => {
            let lsid = rng.range_u8(0, 32);
            let imm = rng.range_i32(-256, 256);
            let t = target(rng, nbody);
            Instruction::load(Opcode::Ld, lsid, imm, t)
        }
        3 => {
            let lsid = rng.range_u8(0, 32);
            let imm = rng.range_i32(-256, 256);
            Instruction::store(Opcode::Sd, lsid, imm)
        }
        4 => {
            let exit = rng.range_u8(0, 8);
            let off = rng.range_i32(-1000, 1000);
            Instruction::branch(Opcode::Bro, exit, off)
        }
        _ => {
            let c = rng.next_u32() as u16;
            let t = target(rng, nbody);
            Instruction::constant(Opcode::Genu, c, t)
        }
    }
}

/// An arbitrary instruction mix ending in a halt, with a random store
/// mask and flags (structurally encodable; not necessarily valid).
fn block(rng: &mut Rng) -> TripsBlock {
    let n = rng.range_usize(1, 96);
    let mut b = TripsBlock::new();
    for _ in 0..n {
        b.push(inst(rng, 96)).expect("under the limit");
    }
    // A block must end with something non-nop for exact
    // round-tripping (trailing nops are trimmed by decode).
    b.push(Instruction::branch(Opcode::Halt, 0, 0)).unwrap();
    b.header.store_mask = rng.next_u32();
    b.header.flags = BlockFlags::from_bits(rng.next_u32() as u8);
    b
}

/// Overwrites, deletes or inserts one to three elements of `v`, each
/// new element drawn by `pick`.
fn mutate<T>(rng: &mut Rng, v: &mut Vec<T>, pick: impl Fn(&mut Rng) -> T) {
    for _ in 0..rng.range_usize(1, 4) {
        let at = rng.range_usize(0, v.len() + 1);
        match rng.range_u8(0, 3) {
            0 if at < v.len() => v[at] = pick(rng),
            1 if at < v.len() => _ = v.remove(at),
            _ => v.insert(at, pick(rng)),
        }
    }
}

/// Encode/decode is the identity on arbitrary instruction mixes
/// (structural round trip; the blocks need not be executable).
#[test]
fn block_roundtrips() {
    let mut rng = Rng::new(0x5eed_0001);
    for _ in 0..256 {
        let b = block(&mut rng);
        let bytes = encode(&b);
        assert_eq!(bytes.len() % CHUNK_BYTES, 0);
        assert!(bytes.len() <= MAX_BLOCK_BYTES);
        let back = decode(&bytes).expect("decodes");
        assert_eq!(b, back);
    }
}

/// Header read/write slots round-trip with their banked registers.
#[test]
fn header_roundtrips() {
    let mut rng = Rng::new(0x5eed_0002);
    for _ in 0..256 {
        let mut b = TripsBlock::new();
        b.push(Instruction::branch(Opcode::Halt, 0, 0)).unwrap();
        for _ in 0..rng.range_usize(1, 16) {
            let slot = rng.range_u8(0, 32);
            let bank = read_slot_bank(slot);
            let reg = ArchReg::from_bank_index(bank, rng.range_u8(0, 32));
            b.set_read(slot, ReadInst::new(reg, [Target::none(); 2])).unwrap();
            let wreg = ArchReg::from_bank_index(bank, rng.range_u8(0, 32));
            b.set_write(slot, WriteInst::new(wreg)).unwrap();
        }
        let back = decode(&encode(&b)).expect("decodes");
        assert_eq!(b.header, back.header);
    }
}

/// The validator never panics, whatever the block shape.
#[test]
fn validate_never_panics() {
    let mut rng = Rng::new(0x5eed_0003);
    for _ in 0..256 {
        let mut b = TripsBlock::new();
        for _ in 0..rng.range_usize(0, 64) {
            let _ = b.push(inst(&mut rng, 127));
        }
        b.header.store_mask = rng.next_u32();
        let _ = b.validate(); // any Result is fine; no panic allowed
    }
}

/// The binary decoders never panic: arbitrary bytes and one- to
/// three-byte mutations of valid encodings decode to a block or an
/// error, at every chunk offset.
#[test]
fn decoders_never_panic() {
    let mut rng = Rng::new(0x5eed_0004);
    let byte = |rng: &mut Rng| rng.next_u32() as u8;
    for i in 0..3000 {
        let mut bytes = if i % 4 == 0 {
            (0..rng.range_usize(0, MAX_BLOCK_BYTES + CHUNK_BYTES)).map(|_| byte(&mut rng)).collect()
        } else {
            encode(&block(&mut rng))
        };
        mutate(&mut rng, &mut bytes, byte);
        if let Ok(b) = decode(&bytes) {
            let _ = (b.validate(), disassemble(&b));
        }
        let _ = decode_header(&bytes);
        let odd = rng.range_usize(0, bytes.len() + 1);
        for start in (0..bytes.len()).step_by(CHUNK_BYTES).chain([odd]) {
            let _ = decode_body_chunk(&bytes[start..]);
        }
    }
}

/// The assembler never panics: arbitrary text over its own vocabulary
/// and one- to three-character mutations of what `disassemble` writes
/// assemble to a block or an error naming a line.
#[test]
fn assembler_never_panics() {
    const FIG5A: &str = "R[0] read R4 N[1,L] N[2,L]\nN[0] movi #0 N[1,R]\nN[1] teq N[2,P] N[3,P]\n\
                         N[2] p_f muli #4 N[32,L]\nN[3] p_t null N[34,L] N[34,R]\n\
                         N[32] lw #8 [lsid=0] N[33,L]\nN[33] mov N[34,L] N[34,R]\n\
                         N[34] sw #0 [lsid=1]\nN[35] callo exit=0 offset=16\nW[5] write R7\n";
    assert!(asm::assemble_block(FIG5A).is_ok(), "the mutation seed assembles");
    let alphabet: Vec<char> = "RNW[],LP#-=;_ \n0123456789readwitmovlsxbfp_é".chars().collect();
    let mut rng = Rng::new(0x5eed_0005);
    let pick = |rng: &mut Rng| alphabet[rng.range_usize(0, alphabet.len())];
    for i in 0..3000 {
        let mut text: Vec<char> = match i % 4 {
            0 => (0..rng.range_usize(0, 64)).map(|_| pick(&mut rng)).collect(),
            1 => FIG5A.chars().collect(),
            _ => disassemble(&block(&mut rng)).chars().collect(),
        };
        mutate(&mut rng, &mut text, pick);
        let _ = asm::assemble_block(&text.into_iter().collect::<String>());
    }
}
