//! Fragmentation invariance for the incremental [`FrameDecoder`]: a frame
//! stream is the same stream no matter how the transport slices it.
//!
//! TCP owes the protocol nothing about read boundaries — one socket read
//! can surface one byte of a length prefix, a prefix-and-a-half, or forty
//! frames at once. The decoder is the *one* place that reassembles, so
//! this suite feeds identical byte streams through pathological chunkings
//! — 1-byte drip, 7-byte (prime, never aligned with the 4-byte length or
//! 5-byte header), every single split point, and seeded random slices —
//! and demands the identical frame sequence every time. Each piece is one
//! `read` of a transport under [`read_frame`], the loop the server and
//! the client both read through, so the decoder's read room is exercised
//! too.

use std::collections::VecDeque;
use std::io::Read;

use aicomp_serve::protocol::{encode_frame, frame_crc, read_frame, FrameDecoder};
use proptest::prelude::*;

/// A transport that surfaces its stream one scheduled piece per `read`
/// (split further only when the reader offers less room), then EOF.
struct Pieces {
    pieces: VecDeque<Vec<u8>>,
}

impl Pieces {
    /// Cut `stream` into consecutive `pieces`-sized reads. A zero-sized
    /// piece is no read at all: a read of 0 bytes is EOF.
    fn new(stream: &[u8], pieces: &[usize]) -> Pieces {
        assert_eq!(pieces.iter().sum::<usize>(), stream.len(), "pieces must cover the stream");
        let mut at = 0;
        let pieces = pieces
            .iter()
            .filter(|&&len| len > 0)
            .map(|&len| {
                at += len;
                stream[at - len..at].to_vec()
            })
            .collect();
        Pieces { pieces }
    }
}

impl Read for Pieces {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Some(mut piece) = self.pieces.pop_front() else { return Ok(0) };
        let n = piece.len().min(buf.len());
        buf[..n].copy_from_slice(&piece[..n]);
        if n < piece.len() {
            self.pieces.push_front(piece.split_off(n));
        }
        Ok(n)
    }
}

/// Decode an entire byte stream delivered in `pieces`-sized reads;
/// returns every `(opcode, body)` read, in order, up to the clean EOF
/// that proves no partial frame is left.
fn decode_in_pieces(stream: &[u8], pieces: &[usize]) -> Vec<(u8, Vec<u8>)> {
    let mut wire = Pieces::new(stream, pieces);
    let mut dec = FrameDecoder::new();
    std::iter::from_fn(|| read_frame(&mut wire, &mut dec).expect("valid stream must decode"))
        .collect()
}

/// Cover `len` bytes with pieces of a fixed size (last one ragged).
fn even_pieces(len: usize, size: usize) -> Vec<usize> {
    let mut pieces = vec![size; len / size];
    if !len.is_multiple_of(size) || len == 0 {
        pieces.push(len % size);
    }
    pieces
}

/// A multi-frame wire stream built from `(opcode, body)` pairs.
fn stream_of(frames: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (op, body) in frames {
        bytes.extend_from_slice(&encode_frame(*op, body).expect("encodable"));
    }
    bytes
}

/// Strategy: a short sequence of frames with arbitrary opcodes and bodies
/// (including empty bodies — the length prefix alone must carry them).
fn frames_strategy() -> impl Strategy<Value = Vec<(u8, Vec<u8>)>> {
    prop::collection::vec((any::<u8>(), prop::collection::vec(any::<u8>(), 0..64)), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The reference chunking (whole stream at once) and every degenerate
    /// chunking (1-byte drip, 7-byte ragged) agree frame-for-frame.
    #[test]
    fn drip_feeds_reproduce_whole_stream(frames in frames_strategy()) {
        let stream = stream_of(&frames);
        let whole = decode_in_pieces(&stream, &[stream.len()]);
        prop_assert_eq!(&whole, &frames, "whole-stream decode must echo the input");
        let drip = decode_in_pieces(&stream, &even_pieces(stream.len(), 1));
        prop_assert_eq!(&drip, &frames);
        let sevens = decode_in_pieces(&stream, &even_pieces(stream.len(), 7));
        prop_assert_eq!(&sevens, &frames);
    }

    /// Random seeded chunkings — the proptest shrinker hunts for the one
    /// slicing that desynchronises the decoder, if any exists.
    #[test]
    fn random_chunkings_reproduce_whole_stream(
        frames in frames_strategy(),
        cuts in prop::collection::vec(1usize..=9, 512),
    ) {
        let stream = stream_of(&frames);
        let mut pieces = Vec::new();
        let mut covered = 0;
        for c in cuts {
            if covered >= stream.len() {
                break;
            }
            let take = c.min(stream.len() - covered);
            pieces.push(take);
            covered += take;
        }
        let got = decode_in_pieces(&stream, &pieces);
        prop_assert_eq!(got, frames);
    }

    /// A corrupted CRC is a typed decode error at exactly the frame it
    /// damages — fragmentation must not smear it into a later frame.
    #[test]
    fn crc_damage_is_detected_at_any_split(
        body in prop::collection::vec(any::<u8>(), 1..32),
        flip in any::<u8>(),
    ) {
        let mut stream = encode_frame(7, &body).unwrap();
        let last = stream.len() - 1;
        stream[last] ^= flip | 1; // always damages the trailing CRC byte
        let mut wire = Pieces::new(&stream, &even_pieces(stream.len(), 1));
        let got = read_frame(&mut wire, &mut FrameDecoder::new());
        prop_assert!(got.is_err(), "damaged CRC must be a typed error");
    }
}

/// Exhaustive split points: the same two-frame stream cut at *every* byte
/// boundary yields identical frames. (Deterministic, not sampled — the
/// stream is short enough to enumerate.)
#[test]
fn every_single_split_point_is_equivalent() {
    let frames = vec![(2u8, vec![0xAB; 13]), (5u8, (0..37u8).collect::<Vec<u8>>())];
    let stream = stream_of(&frames);
    let whole = decode_in_pieces(&stream, &[stream.len()]);
    assert_eq!(whole, frames);
    for split in 0..=stream.len() {
        let got = decode_in_pieces(&stream, &[split, stream.len() - split]);
        assert_eq!(got, frames, "split at byte {split} diverged");
    }
}

/// A frame longer than the decoder's read room arrives over many reads
/// whatever the pieces: the room grows toward the frame's end as the body
/// comes in, and the bytes behind it still decode.
#[test]
fn frames_longer_than_the_read_room_reassemble() {
    let big: Vec<u8> = (0..200_000u32).map(|i| (i * 7 % 251) as u8).collect();
    let frames = vec![(1u8, vec![9; 3]), (2u8, big), (3u8, (0..40u8).collect())];
    let stream = stream_of(&frames);
    for size in [1, 7, 8191, 8193, 65_537, stream.len()] {
        assert_eq!(decode_in_pieces(&stream, &even_pieces(stream.len(), size)), frames, "{size}");
    }
}

/// The CRC helper itself is stable across body fragmentation — the slab
/// path computes it once over the whole body; a streaming implementation
/// must agree.
#[test]
fn frame_crc_matches_encoded_trailer() {
    let body: Vec<u8> = (0..200u8).collect();
    let frame = encode_frame(9, &body).unwrap();
    let trailer = u32::from_le_bytes(frame[frame.len() - 4..].try_into().unwrap());
    assert_eq!(trailer, frame_crc(9, &body));
}
