//! The trace event codec.
//!
//! ATOM-style workflows separate *instrumentation* from *analysis*: one
//! expensive instrumented run produces a trace, then any number of
//! analyses replay it. This module is the byte encoding of that trace:
//! each [`TraceEvent`] is a tag byte followed by LEB128 varints, with the
//! instruction count delta-encoded against the previous event.
//! [`encode_event`] and [`decode_event`] are exact inverses, so a decoded
//! stream drives any set of [`TraceObserver`](crate::TraceObserver)s to byte-for-byte the same
//! observations the live run did.
//!
//! The codec is container-free: the `spm-store` crate frames encoded
//! events into checksummed `spmstk01` blocks (the one on-disk trace
//! container), and `spm-serve` streams those frames over its wire
//! protocol. Malformed bytes decode to a typed [`DecodeError`] naming the
//! failure and its byte offset, never to garbage events.
//!
//! # Examples
//!
//! ```
//! use spm_ir::{Input, ProgramBuilder, Trip};
//! use spm_sim::record::{decode_event, encode_event};
//! use spm_sim::{run, TimingModel, TraceEvent, TraceObserver};
//!
//! /// Encodes the live event stream, delta-encoding instruction counts.
//! #[derive(Default)]
//! struct Encoder {
//!     bytes: Vec<u8>,
//!     last: u64,
//! }
//!
//! impl TraceObserver for Encoder {
//!     fn on_event(&mut self, icount: u64, event: &TraceEvent) {
//!         encode_event(&mut self.bytes, icount - self.last, event);
//!         self.last = icount;
//!     }
//! }
//!
//! let mut b = ProgramBuilder::new("t");
//! b.proc("main", |p| {
//!     p.loop_(Trip::Fixed(10), |body| {
//!         body.block(50).done();
//!     });
//! });
//! let program = b.build("main").unwrap();
//!
//! // Encode once...
//! let mut encoder = Encoder::default();
//! run(&program, &Input::new("x", 1), &mut [&mut encoder]).unwrap();
//!
//! // ...analyze later, without the program.
//! let mut timing = TimingModel::default();
//! let (mut pos, mut icount) = (0, 0);
//! while pos < encoder.bytes.len() {
//!     let (delta, event) = decode_event(&encoder.bytes, &mut pos).unwrap();
//!     icount += delta;
//!     timing.on_event(icount, &event);
//! }
//! assert_eq!(timing.instrs(), 500);
//! ```

use crate::events::TraceEvent;
use spm_ir::{BlockId, BranchId, LoopId, ProcId};
use std::fmt;

/// Event tag bytes (stable encoding).
mod tag {
    pub const BLOCK: u8 = 1;
    pub const MEM_READ: u8 = 2;
    pub const MEM_WRITE: u8 = 3;
    pub const BRANCH_TAKEN: u8 = 4;
    pub const BRANCH_NOT: u8 = 5;
    pub const CALL: u8 = 6;
    pub const RETURN: u8 = 7;
    pub const LOOP_ENTER: u8 = 8;
    pub const LOOP_ITER: u8 = 9;
    pub const LOOP_EXIT: u8 = 10;
    pub const FINISH: u8 = 11;
}

/// Appends a LEB128 varint to `out` (the integer encoding of the event
/// codec, exposed for the `spm-store` block container).
pub fn push_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint at `*pos`, advancing it; inverse of
/// [`push_varint`].
///
/// Only canonical (minimal-length) encodings are accepted: a multi-byte
/// encoding ending in a zero byte carries no information in its last
/// group and is rejected as [`DecodeError::NonCanonical`], and a tenth
/// byte with any bit above the 64th set is an [`DecodeError::Overflow`]
/// rather than a silent truncation. This makes `encode(decode(x))`
/// byte-identical for every accepted input. The one- and two-byte
/// shapes — deltas and interned ids, the overwhelming majority of trace
/// varints — decode without entering the loop.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let at = *pos;
    if let Some(&b0) = bytes.get(at) {
        if b0 & 0x80 == 0 {
            *pos = at + 1;
            return Ok(u64::from(b0));
        }
        if let Some(&b1) = bytes.get(at + 1) {
            if b1 & 0x80 == 0 {
                *pos = at + 2;
                if b1 == 0 {
                    return Err(DecodeError::NonCanonical { offset: at + 1 });
                }
                return Ok(u64::from(b0 & 0x7f) | (u64::from(b1) << 7));
            }
        }
    }
    read_varint_scalar(bytes, pos)
}

/// The byte-at-a-time reference decoder: the checked tail of
/// [`read_varint`], and the specification its fast cases are
/// differential-tested against.
fn read_varint_scalar(bytes: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let at = *pos;
        let &byte = bytes.get(at).ok_or(DecodeError::Truncated { offset: at })?;
        *pos += 1;
        if shift >= 64 {
            return Err(DecodeError::Overflow { offset: at });
        }
        let group = byte & 0x7f;
        if shift == 63 && group > 1 {
            // The 10th byte may only contribute the 64th bit.
            return Err(DecodeError::Overflow { offset: at });
        }
        value |= u64::from(group) << shift;
        if byte & 0x80 == 0 {
            if group == 0 && shift != 0 {
                return Err(DecodeError::NonCanonical { offset: at });
            }
            return Ok(value);
        }
        shift += 7;
    }
}

/// Errors while decoding a recorded trace. Offsets are byte positions
/// in the buffer being decoded (a block payload, or the container for
/// framing errors), so reports localize the corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The byte stream ended inside an event (or inside a header or
    /// frame).
    Truncated {
        /// Byte offset where the stream ended.
        offset: usize,
    },
    /// A varint exceeded 64 bits, or an accumulated instruction count
    /// overflowed.
    Overflow {
        /// Byte offset of the offending encoding.
        offset: usize,
    },
    /// A varint used more bytes than its value needs (a zero-padded,
    /// over-long encoding). The canonical encoder never emits these, so
    /// accepting them would break `encode(decode(x))` byte-identity.
    NonCanonical {
        /// Byte offset of the redundant final byte.
        offset: usize,
    },
    /// An unknown event tag was found.
    BadTag {
        /// The tag byte.
        tag: u8,
        /// Byte offset of the tag.
        offset: usize,
    },
    /// The input did not begin with the `spmstk` magic bytes: it is not
    /// an `spmstk01` trace store.
    BadMagic,
    /// The `spmstk` magic matched but the version digits are unknown.
    UnsupportedVersion {
        /// The two version bytes found after the magic prefix.
        version: [u8; 2],
    },
    /// A declared length does not match the bytes present (a truncated
    /// or padded file, or a frame that disagrees with the index).
    LengthMismatch {
        /// Payload length the header declares.
        declared: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
    /// A checksum does not match the bytes as read (bit corruption).
    ChecksumMismatch {
        /// Checksum the header declares.
        expected: u64,
        /// Checksum of the payload as read.
        actual: u64,
    },
    /// A block decoded cleanly but to a different event count (or end
    /// instruction watermark) than its frame declares.
    EventCountMismatch {
        /// Event count the header declares.
        declared: u64,
        /// Events actually decoded.
        actual: u64,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { offset } => {
                write!(f, "trace truncated mid-event at byte {offset}")
            }
            DecodeError::Overflow { offset } => {
                write!(f, "varint overflows 64 bits at byte {offset}")
            }
            DecodeError::NonCanonical { offset } => {
                write!(f, "non-canonical (over-long) varint ends at byte {offset}")
            }
            DecodeError::BadTag { tag, offset } => {
                write!(f, "unknown event tag {tag} at byte {offset}")
            }
            DecodeError::BadMagic => write!(f, "not an spmstk01 trace store (bad magic)"),
            DecodeError::UnsupportedVersion { version } => write!(
                f,
                "unsupported trace store version `spmstk{}{}` (this build reads spmstk01)",
                version[0] as char, version[1] as char
            ),
            DecodeError::LengthMismatch { declared, actual } => write!(
                f,
                "payload length mismatch: header declares {declared} bytes, found {actual}"
            ),
            DecodeError::ChecksumMismatch { expected, actual } => write!(
                f,
                "payload checksum mismatch: header declares {expected:#018x}, computed {actual:#018x}"
            ),
            DecodeError::EventCountMismatch { declared, actual } => write!(
                f,
                "event count mismatch: header declares {declared} events, decoded {actual}"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends one event (tag byte + varint-encoded payload, instruction
/// count delta-encoded as `delta`) to `out`.
///
/// This is *the* event encoding: `spm-store` block payloads and the
/// `spm-serve` wire frames that carry them are sequences of exactly
/// these bytes. Inverse of [`decode_event`].
pub fn encode_event(out: &mut Vec<u8>, delta: u64, event: &TraceEvent) {
    match *event {
        TraceEvent::BlockExec {
            block,
            instrs,
            base_cpi,
        } => {
            out.push(tag::BLOCK);
            push_varint(out, delta);
            push_varint(out, u64::from(block.0));
            push_varint(out, u64::from(instrs));
            out.extend_from_slice(&base_cpi.to_le_bytes());
        }
        TraceEvent::MemAccess { addr, write } => {
            out.push(if write { tag::MEM_WRITE } else { tag::MEM_READ });
            push_varint(out, delta);
            push_varint(out, addr);
        }
        TraceEvent::Branch { branch, taken } => {
            out.push(if taken {
                tag::BRANCH_TAKEN
            } else {
                tag::BRANCH_NOT
            });
            push_varint(out, delta);
            push_varint(out, u64::from(branch.0));
        }
        TraceEvent::Call { proc } => {
            out.push(tag::CALL);
            push_varint(out, delta);
            push_varint(out, u64::from(proc.0));
        }
        TraceEvent::Return { proc } => {
            out.push(tag::RETURN);
            push_varint(out, delta);
            push_varint(out, u64::from(proc.0));
        }
        TraceEvent::LoopEnter { loop_id } => {
            out.push(tag::LOOP_ENTER);
            push_varint(out, delta);
            push_varint(out, u64::from(loop_id.0));
        }
        TraceEvent::LoopIter { loop_id } => {
            out.push(tag::LOOP_ITER);
            push_varint(out, delta);
            push_varint(out, u64::from(loop_id.0));
        }
        TraceEvent::LoopExit { loop_id } => {
            out.push(tag::LOOP_EXIT);
            push_varint(out, delta);
            push_varint(out, u64::from(loop_id.0));
        }
        TraceEvent::Finish => {
            out.push(tag::FINISH);
            push_varint(out, delta);
        }
    }
}

fn read_id(bytes: &[u8], pos: &mut usize) -> Result<u32, DecodeError> {
    let at = *pos;
    let v = read_varint(bytes, pos)?;
    u32::try_from(v).map_err(|_| DecodeError::Overflow { offset: at })
}

/// Decodes one event at `*pos`, advancing `*pos` past it. Returns the
/// instruction-count delta and the event; inverse of [`encode_event`].
pub fn decode_event(bytes: &[u8], pos: &mut usize) -> Result<(u64, TraceEvent), DecodeError> {
    let tag_at = *pos;
    let &tag_byte = bytes
        .get(tag_at)
        .ok_or(DecodeError::Truncated { offset: tag_at })?;
    *pos += 1;
    let delta = read_varint(bytes, pos)?;
    let event = match tag_byte {
        tag::BLOCK => {
            let block = BlockId(read_id(bytes, pos)?);
            let instrs = read_id(bytes, pos)?;
            let slice = bytes.get(*pos..*pos + 8).ok_or(DecodeError::Truncated {
                offset: bytes.len(),
            })?;
            let mut raw = [0u8; 8];
            raw.copy_from_slice(slice);
            *pos += 8;
            TraceEvent::BlockExec {
                block,
                instrs,
                base_cpi: f64::from_le_bytes(raw),
            }
        }
        tag::MEM_READ => TraceEvent::MemAccess {
            addr: read_varint(bytes, pos)?,
            write: false,
        },
        tag::MEM_WRITE => TraceEvent::MemAccess {
            addr: read_varint(bytes, pos)?,
            write: true,
        },
        tag::BRANCH_TAKEN => TraceEvent::Branch {
            branch: BranchId(read_id(bytes, pos)?),
            taken: true,
        },
        tag::BRANCH_NOT => TraceEvent::Branch {
            branch: BranchId(read_id(bytes, pos)?),
            taken: false,
        },
        tag::CALL => TraceEvent::Call {
            proc: ProcId(read_id(bytes, pos)?),
        },
        tag::RETURN => TraceEvent::Return {
            proc: ProcId(read_id(bytes, pos)?),
        },
        tag::LOOP_ENTER => TraceEvent::LoopEnter {
            loop_id: LoopId(read_id(bytes, pos)?),
        },
        tag::LOOP_ITER => TraceEvent::LoopIter {
            loop_id: LoopId(read_id(bytes, pos)?),
        },
        tag::LOOP_EXIT => TraceEvent::LoopExit {
            loop_id: LoopId(read_id(bytes, pos)?),
        },
        tag::FINISH => TraceEvent::Finish,
        other => {
            return Err(DecodeError::BadTag {
                tag: other,
                offset: tag_at,
            })
        }
    };
    Ok((delta, event))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use proptest::prelude::*;
    use spm_ir::{Input, ProgramBuilder, Trip};

    fn sample_program() -> spm_ir::Program {
        let mut b = ProgramBuilder::new("t");
        let r = b.region_bytes("d", 1 << 14);
        b.proc("main", |p| {
            p.loop_(Trip::Fixed(20), |outer| {
                outer.block(30).rand_read(r, 2).seq_write(r, 1).done();
                outer.if_prob(0.5, |t| t.call("f"), |_| {});
            });
        });
        b.proc("f", |p| p.block(7).done());
        b.build("main").unwrap()
    }

    /// The live event stream of the sample program under `seed`.
    fn live_events(seed: u64) -> Vec<(u64, TraceEvent)> {
        let mut live = Vec::new();
        run(&sample_program(), &Input::new("x", seed), &mut [&mut live]).unwrap();
        live
    }

    fn encode_all(events: &[(u64, TraceEvent)]) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut last = 0;
        for (icount, event) in events {
            encode_event(&mut bytes, icount - last, event);
            last = *icount;
        }
        bytes
    }

    fn decode_all(bytes: &[u8]) -> Result<Vec<(u64, TraceEvent)>, DecodeError> {
        let mut out = Vec::new();
        let (mut pos, mut icount) = (0, 0u64);
        while pos < bytes.len() {
            let (delta, event) = decode_event(bytes, &mut pos)?;
            icount += delta;
            out.push((icount, event));
        }
        Ok(out)
    }

    #[test]
    fn decode_reproduces_live_events_exactly() {
        let live = live_events(77);
        assert_eq!(decode_all(&encode_all(&live)), Ok(live));
    }

    #[test]
    fn encoding_is_compact() {
        let live = live_events(1);
        let per_event = encode_all(&live).len() as f64 / live.len() as f64;
        assert!(per_event < 8.0, "{per_event} bytes/event is too fat");
    }

    #[test]
    fn decode_errors_carry_offsets() {
        let decode = |bytes: &[u8]| decode_event(bytes, &mut 0).map(|_| ());
        // An unknown tag, reported at its own offset.
        assert_eq!(
            decode(&[99, 0]),
            Err(DecodeError::BadTag { tag: 99, offset: 0 })
        );
        // The stream ends inside a block event's fields.
        assert_eq!(
            decode(&[tag::BLOCK, 0]),
            Err(DecodeError::Truncated { offset: 2 })
        );
        // Varint overflow: the 10th continuation byte carries bits past
        // 2^64, caught on that byte rather than one later.
        let mut over = vec![tag::FINISH];
        over.extend([0xff; 10]);
        over.push(0x01);
        assert_eq!(decode(&over), Err(DecodeError::Overflow { offset: 10 }));
        // Non-canonical: a zero-padded (over-long) delta encoding.
        assert_eq!(
            decode(&[tag::FINISH, 0x80, 0x00]),
            Err(DecodeError::NonCanonical { offset: 2 })
        );
    }

    #[test]
    fn varint_boundary_encodings() {
        // u64::MAX is the longest canonical varint: nine 0xff bytes and
        // a final 0x01 contributing only the 64th bit.
        let mut bytes = Vec::new();
        push_varint(&mut bytes, u64::MAX);
        assert_eq!(bytes, [[0xff; 9].as_slice(), &[0x01]].concat());
        let mut pos = 0;
        assert_eq!(read_varint(&bytes, &mut pos), Ok(u64::MAX));
        assert_eq!(pos, 10);
        // A 10th byte with any higher bit set overflows.
        let over = [[0xff; 9].as_slice(), &[0x02]].concat();
        let mut pos = 0;
        assert_eq!(
            read_varint(&over, &mut pos),
            Err(DecodeError::Overflow { offset: 9 })
        );
        // Over-long encodings of small values are rejected at the
        // redundant final byte, at every length.
        for len in 2..=10usize {
            let mut padded = vec![0x81u8]; // canonical alone would be [0x01]
            padded.extend(vec![0x80u8; len - 2]);
            padded.push(0x00);
            let mut pos = 0;
            assert_eq!(
                read_varint(&padded, &mut pos),
                Err(DecodeError::NonCanonical { offset: len - 1 }),
                "length {len}"
            );
        }
    }

    proptest! {
        #[test]
        fn varints_round_trip(values in proptest::collection::vec(any::<u64>(), 0..50)) {
            let mut bytes = Vec::new();
            for &v in &values {
                push_varint(&mut bytes, v);
            }
            let mut pos = 0;
            for &v in &values {
                prop_assert_eq!(read_varint(&bytes, &mut pos), Ok(v));
            }
            prop_assert_eq!(pos, bytes.len());
        }

        #[test]
        fn fast_varint_matches_scalar_reference(bytes in proptest::collection::vec(any::<u8>(), 0..24)) {
            // The unrolled fast cases must agree with the byte-at-a-time
            // reference decoder on every input: same value and same
            // final position on success, same error (variant AND offset)
            // on malformed prefixes.
            let mut fast_pos = 0;
            let mut slow_pos = 0;
            let fast = read_varint(&bytes, &mut fast_pos);
            let slow = read_varint_scalar(&bytes, &mut slow_pos);
            prop_assert_eq!(fast, slow);
            if fast.is_ok() {
                prop_assert_eq!(fast_pos, slow_pos);
            }
        }

        #[test]
        fn decoded_varints_reencode_byte_identically(bytes in proptest::collection::vec(any::<u8>(), 0..24)) {
            // Canonical-only decoding makes encode(decode(x)) the
            // identity on accepted prefixes.
            let mut pos = 0;
            if let Ok(value) = read_varint(&bytes, &mut pos) {
                let mut reencoded = Vec::new();
                push_varint(&mut reencoded, value);
                prop_assert_eq!(&reencoded[..], &bytes[..pos]);
            }
        }

        #[test]
        fn encoded_streams_decode_for_random_seeds(seed in 0u64..500) {
            let live = live_events(seed);
            prop_assert_eq!(decode_all(&encode_all(&live)), Ok(live));
        }

        #[test]
        fn truncating_anywhere_never_panics(seed in 0u64..30, cut_frac in 0.0f64..1.0) {
            let bytes = encode_all(&live_events(seed));
            let cut = (bytes.len() as f64 * cut_frac) as usize;
            // A typed error or a clean (shorter) decode, never a panic.
            let _ = decode_all(&bytes[..cut]);
        }
    }
}
