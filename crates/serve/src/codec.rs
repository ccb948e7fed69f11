//! The binary wire codec: a compact, self-describing encoding of the serde
//! [`Value`] tree over the `bytes` shim.
//!
//! Every wire message already converts through `serde::Value` (the shim's
//! intermediate tree), so one generic `Value ↔ bytes` codec covers every
//! `Request`/`Response` variant — including everything nested inside domain
//! specs and runtime snapshots — and agreement with the JSONL codec holds by
//! construction: both are faithful encodings of the same tree.
//!
//! ## Value encoding
//!
//! One tag byte, then a payload:
//!
//! | tag | value           | payload                                  |
//! |-----|-----------------|------------------------------------------|
//! | 0   | `Null`          | —                                        |
//! | 1   | `Bool(false)`   | —                                        |
//! | 2   | `Bool(true)`    | —                                        |
//! | 3   | `U64`           | LEB128 varint                            |
//! | 4   | `I64`           | zigzag LEB128 varint                     |
//! | 5   | `F64`           | 8 bytes, IEEE-754 bits little-endian     |
//! | 6   | `Str`           | varint byte length ‖ UTF-8 bytes         |
//! | 7   | `Seq`           | varint count ‖ elements                  |
//! | 8   | `Map`           | varint count ‖ (key string ‖ value) pairs|
//!
//! Varints keep the common small integers (domain ids, counts, step numbers)
//! to one byte; floats keep their exact bits, so a binary round trip is
//! identity even where JSON text would have to re-parse a decimal form.
//!
//! ## Framing
//!
//! A connection that opened with the [`BINARY_PREFIX`] negotiation byte
//! carries length-prefixed frames in both directions:
//!
//! ```text
//! u32 LE body length (correlation id + message) ‖ u64 LE correlation id ‖ message
//! ```
//!
//! The correlation id is chosen by the client and echoed verbatim on the
//! response frame, which is what makes out-of-order pipelining possible: the
//! server may complete requests in any order (only per-domain order is
//! preserved) and the client matches completions by id.
//!
//! ## One session, two framings
//!
//! Server sessions and [`crate::Client`] read and write either codec through
//! the same [`Proto`]-keyed pair: `Inbound` splits the next message off a
//! connection's bytes and `Proto::encode` appends one. A JSONL line has no
//! id field, so its position among the connection's lines is its
//! correlation id, and JSONL replies go back in request order.

use bytes::{Buf, BufMut, BytesMut};
use serde::Value;
use std::io::{self, Read};

/// Negotiation byte opening a binary connection (followed by one version
/// byte).
pub const BINARY_PREFIX: u8 = b'B';
/// Optional negotiation byte explicitly selecting the legacy JSONL codec.
/// Any first byte other than [`BINARY_PREFIX`] or this selects JSONL too —
/// raw `nc` sessions keep working — but the explicit form lets a client be
/// version-proof.
pub const JSONL_PREFIX: u8 = b'J';
/// Binary framing version carried right after [`BINARY_PREFIX`].
pub const BINARY_VERSION: u8 = 1;
/// Upper bound on one frame's body, guarding the length-prefix read against
/// garbage (a snapshot of a large fleet is MBs, not GBs).
pub const MAX_FRAME_LEN: usize = 256 << 20;

/// Bytes of framing overhead ahead of each message body.
pub const FRAME_HEADER: usize = 4 + 8;

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    while v >= 0x80 {
        buf.put_u8((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    buf.put_u8(v as u8);
}

fn get_varint(buf: &mut &[u8]) -> Result<u64, String> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if buf.remaining() == 0 {
            return Err("truncated varint".into());
        }
        let byte = buf.get_u8();
        if shift == 63 && byte > 1 {
            return Err("varint overflows u64".into());
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_U64: u8 = 3;
const TAG_I64: u8 = 4;
const TAG_F64: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_SEQ: u8 = 7;
const TAG_MAP: u8 = 8;

/// Appends the binary encoding of `value` to `buf`.
pub fn encode_value(value: &Value, buf: &mut BytesMut) {
    match value {
        Value::Null => buf.put_u8(TAG_NULL),
        Value::Bool(false) => buf.put_u8(TAG_FALSE),
        Value::Bool(true) => buf.put_u8(TAG_TRUE),
        Value::U64(n) => {
            buf.put_u8(TAG_U64);
            put_varint(buf, *n);
        }
        Value::I64(n) => {
            buf.put_u8(TAG_I64);
            // Zigzag: small magnitudes of either sign stay short.
            put_varint(buf, ((n << 1) ^ (n >> 63)) as u64);
        }
        Value::F64(x) => {
            buf.put_u8(TAG_F64);
            buf.put_f64_le(*x);
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            put_str(buf, s);
        }
        Value::Seq(items) => {
            buf.put_u8(TAG_SEQ);
            put_varint(buf, items.len() as u64);
            for item in items {
                encode_value(item, buf);
            }
        }
        Value::Map(entries) => {
            buf.put_u8(TAG_MAP);
            put_varint(buf, entries.len() as u64);
            for (key, item) in entries {
                put_str(buf, key);
                encode_value(item, buf);
            }
        }
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String, String> {
    let len = get_varint(buf)? as usize;
    if buf.remaining() < len {
        return Err(format!("truncated string: need {len}, have {}", buf.remaining()));
    }
    let s = std::str::from_utf8(&buf.chunk()[..len])
        .map_err(|e| format!("string is not UTF-8: {e}"))?
        .to_owned();
    buf.advance(len);
    Ok(s)
}

/// Decodes one value from the front of `buf`, advancing it.
pub fn decode_value(buf: &mut &[u8]) -> Result<Value, String> {
    if buf.remaining() == 0 {
        return Err("empty buffer".into());
    }
    match buf.get_u8() {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_U64 => Ok(Value::U64(get_varint(buf)?)),
        TAG_I64 => {
            let z = get_varint(buf)?;
            Ok(Value::I64(((z >> 1) as i64) ^ -((z & 1) as i64)))
        }
        TAG_F64 => {
            if buf.remaining() < 8 {
                return Err("truncated f64".into());
            }
            Ok(Value::F64(buf.get_f64_le()))
        }
        TAG_STR => Ok(Value::Str(get_str(buf)?)),
        TAG_SEQ => {
            let count = get_varint(buf)?;
            let n = checked_count(buf, count)?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_value(buf)?);
            }
            Ok(Value::Seq(items))
        }
        TAG_MAP => {
            let count = get_varint(buf)?;
            let n = checked_count(buf, count)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let key = get_str(buf)?;
                entries.push((key, decode_value(buf)?));
            }
            Ok(Value::Map(entries))
        }
        tag => Err(format!("unknown value tag {tag}")),
    }
}

/// Caps a decoded element count by the bytes actually present (each element
/// costs ≥ 1 byte), so corrupt counts can't drive huge preallocations.
fn checked_count(buf: &&[u8], n: u64) -> Result<usize, String> {
    if n > buf.remaining() as u64 {
        return Err(format!("container count {n} exceeds {} remaining bytes", buf.remaining()));
    }
    Ok(n as usize)
}

/// Encodes a message as a binary value (no framing).
pub fn encode_binary<T: serde::Serialize>(msg: &T, buf: &mut BytesMut) {
    encode_value(&msg.to_value(), buf);
}

/// Decodes a message from a binary value; the whole buffer must be consumed.
pub fn decode_binary<T: serde::Deserialize>(mut body: &[u8]) -> Result<T, String> {
    let value = decode_value(&mut body)?;
    if !body.is_empty() {
        return Err(format!("{} trailing bytes after message", body.len()));
    }
    T::from_value(&value).map_err(|e| e.to_string())
}

/// Magic byte opening every encoded domain snapshot.
pub const SNAPSHOT_MAGIC: u8 = b'S';
/// Version of the snapshot encoding. Bump on incompatible layout changes;
/// decoders reject other versions rather than feeding the deserializer
/// garbage.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Encodes a domain snapshot to its compact binary form — the encoding the
/// fleet's hibernation store holds cold domains in. Equivalent to the JSONL
/// text form by construction (both encode the same `Value` tree) at a
/// fraction of the size, behind a 2-byte magic + version header.
pub fn encode_snapshot(snapshot: &crate::domain::DomainSnapshot) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_u8(SNAPSHOT_MAGIC);
    buf.put_u8(SNAPSHOT_VERSION);
    encode_binary(snapshot, &mut buf);
    buf.as_slice().to_vec()
}

/// Decodes a domain snapshot from its binary form, validating the header.
pub fn decode_snapshot(bytes: &[u8]) -> Result<crate::domain::DomainSnapshot, String> {
    if bytes.len() < 2 {
        return Err(format!("snapshot header truncated ({} bytes)", bytes.len()));
    }
    if bytes[0] != SNAPSHOT_MAGIC {
        return Err("snapshot magic mismatch (not a binary domain snapshot)".into());
    }
    if bytes[1] != SNAPSHOT_VERSION {
        return Err(format!(
            "snapshot version {} unsupported (this build speaks version {SNAPSHOT_VERSION})",
            bytes[1]
        ));
    }
    decode_binary(&bytes[2..])
}

/// Appends one complete frame (`len ‖ correlation id ‖ message`) to `buf`.
pub fn encode_frame<T: serde::Serialize>(corr: u64, msg: &T, buf: &mut BytesMut) {
    let header_at = buf.len();
    buf.put_u32_le(0); // patched below
    buf.put_u64_le(corr);
    encode_binary(msg, buf);
    let body_len = (buf.len() - header_at - 4) as u32;
    buf[header_at..header_at + 4].copy_from_slice(&body_len.to_le_bytes());
}

/// The whole length and correlation id of the frame at the front of `buf`,
/// `Ok(None)` while it is incomplete.
fn frame_at(buf: &[u8]) -> Result<Option<(usize, u64)>, String> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let body_len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    if body_len > MAX_FRAME_LEN {
        return Err(format!("frame length {body_len} exceeds cap {MAX_FRAME_LEN}"));
    }
    if body_len < 8 {
        return Err(format!("frame length {body_len} too short for a correlation id"));
    }
    if buf.len() < 4 + body_len {
        return Ok(None);
    }
    Ok(Some((4 + body_len, u64::from_le_bytes(buf[4..12].try_into().expect("8 bytes")))))
}

/// Attempts to split one frame off the front of `pending`. Returns
/// `Ok(None)` when more bytes are needed, `Ok(Some((corr, body_range)))`
/// with the frame consumed from `pending` otherwise.
pub fn take_frame(pending: &mut Vec<u8>) -> Result<Option<(u64, Vec<u8>)>, String> {
    let Some((len, corr)) = frame_at(pending)? else { return Ok(None) };
    let body = pending[FRAME_HEADER..len].to_vec();
    pending.drain(..len);
    Ok(Some((corr, body)))
}

/// Which wire codec a connection speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// Line-delimited JSON (the legacy, `nc`-friendly codec).
    Jsonl,
    /// Length-prefixed binary frames with correlation ids.
    Binary,
}

impl Proto {
    /// Parses a `--proto` flag value.
    pub fn parse(s: &str) -> Result<Proto, String> {
        match s {
            "jsonl" => Ok(Proto::Jsonl),
            "binary" => Ok(Proto::Binary),
            other => Err(format!("unknown proto {other:?} (expected jsonl|binary)")),
        }
    }

    /// The `--proto` spelling, also the `codec` telemetry label.
    pub fn name(self) -> &'static str {
        match self {
            Proto::Jsonl => "jsonl",
            Proto::Binary => "binary",
        }
    }

    /// The negotiation bytes a client opens its connection with.
    pub(crate) fn prefix(self) -> &'static [u8] {
        match self {
            Proto::Jsonl => &[JSONL_PREFIX],
            Proto::Binary => &[BINARY_PREFIX, BINARY_VERSION],
        }
    }

    /// Appends one message: a frame echoing `corr`, or a line (whose
    /// position on the connection is its correlation id).
    pub(crate) fn encode<T: serde::Serialize>(self, corr: u64, msg: &T, buf: &mut BytesMut) {
        match self {
            Proto::Binary => encode_frame(corr, msg, buf),
            Proto::Jsonl => {
                buf.put_slice(crate::proto::encode(msg).as_bytes());
                buf.put_u8(b'\n');
            }
        }
    }

    /// Decodes one message body split off by [`Inbound::take`].
    pub(crate) fn decode<T: serde::Deserialize>(self, body: &[u8]) -> Result<T, String> {
        match self {
            Proto::Binary => decode_binary(body),
            Proto::Jsonl => std::str::from_utf8(body)
                .map_err(|e| format!("line is not UTF-8: {e}"))
                .and_then(crate::proto::decode),
        }
    }
}

/// One connection's inbound bytes, split into messages of its codec.
pub(crate) struct Inbound {
    proto: Proto,
    buf: Vec<u8>,
    /// The unconsumed bytes are `buf[start..end]`; the rest is read space.
    start: usize,
    end: usize,
    /// Bytes past `start` already searched for a line end, so a line that
    /// arrives over many reads is scanned once.
    scanned: usize,
    /// JSONL lines split so far: the next line's correlation id.
    lines: u64,
}

impl Inbound {
    /// A splitter for `proto` over bytes already read off the connection.
    pub(crate) fn new(proto: Proto, buffered: Vec<u8>) -> Inbound {
        Inbound { proto, end: buffered.len(), buf: buffered, start: 0, scanned: 0, lines: 0 }
    }

    /// JSONL lines split so far.
    pub(crate) fn lines(&self) -> u64 {
        self.lines
    }

    /// One read from `src` onto the buffer; `Ok(0)` at end of stream.
    pub(crate) fn fill(&mut self, mut src: impl Read) -> io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        const READ: usize = 64 * 1024;
        if self.buf.len() < self.end + READ {
            self.buf.resize(self.end + READ, 0);
        }
        let n = src.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Splits the next whole message off the buffer: its correlation id and
    /// body, or `Ok(None)` while more bytes are needed. Blank JSONL lines
    /// are skipped unanswered. A message longer than [`MAX_FRAME_LEN`] is an
    /// error, and the stream has no resync point past it.
    pub(crate) fn take(&mut self) -> Result<Option<(u64, &[u8])>, String> {
        let (corr, body) = match self.proto {
            Proto::Binary => {
                let Some((len, corr)) = frame_at(&self.buf[self.start..self.end])? else {
                    return Ok(None);
                };
                self.start += len;
                (corr, self.start - len + FRAME_HEADER..self.start)
            }
            Proto::Jsonl => loop {
                let rest = &self.buf[self.start..self.end];
                let Some(end) = rest[self.scanned..].iter().position(|&b| b == b'\n') else {
                    if rest.len() >= MAX_FRAME_LEN {
                        return Err(format!("line length exceeds cap {MAX_FRAME_LEN}"));
                    }
                    self.scanned = rest.len();
                    return Ok(None);
                };
                let len = self.scanned + end + 1;
                if len > MAX_FRAME_LEN {
                    return Err(format!("line length {len} exceeds cap {MAX_FRAME_LEN}"));
                }
                let line = self.start..self.start + len;
                self.start += len;
                self.scanned = 0;
                if !std::str::from_utf8(&self.buf[line.clone()]).is_ok_and(|s| s.trim().is_empty())
                {
                    self.lines += 1;
                    break (self.lines - 1, line);
                }
            },
        };
        Ok(Some((corr, &self.buf[body])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        let mut buf = BytesMut::new();
        encode_value(v, &mut buf);
        let mut slice = buf.as_slice();
        let back = decode_value(&mut slice).expect("decode");
        assert!(slice.is_empty(), "whole encoding consumed");
        back
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::U64(0),
            Value::U64(127),
            Value::U64(128),
            Value::U64(u64::MAX),
            Value::I64(0),
            Value::I64(-1),
            Value::I64(i64::MIN),
            Value::I64(i64::MAX),
            Value::F64(0.0),
            Value::F64(-1.5e-300),
            Value::F64(f64::MAX),
            Value::Str(String::new()),
            Value::Str("héllo \n\"world\"".into()),
        ] {
            assert_eq!(roundtrip(&v), v);
        }
    }

    #[test]
    fn f64_bits_survive_exactly() {
        // Bit patterns JSON text would mangle (NaN payloads, -0.0).
        for bits in [f64::NAN.to_bits() | 0xDEAD, (-0.0f64).to_bits()] {
            let v = Value::F64(f64::from_bits(bits));
            let mut buf = BytesMut::new();
            encode_value(&v, &mut buf);
            let mut s = buf.as_slice();
            match decode_value(&mut s).unwrap() {
                Value::F64(x) => assert_eq!(x.to_bits(), bits),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn nested_containers_round_trip() {
        let v = Value::Map(vec![(
            "Advance".into(),
            Value::Map(vec![
                ("domain".into(), Value::U64(3)),
                ("steps".into(), Value::U64(300)),
                ("qs".into(), Value::Seq(vec![Value::F64(0.25), Value::Null, Value::Bool(true)])),
            ]),
        )]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn varints_are_compact() {
        let mut buf = BytesMut::new();
        encode_value(&Value::U64(5), &mut buf);
        assert_eq!(buf.len(), 2, "tag + one varint byte");
    }

    #[test]
    fn truncated_and_corrupt_input_errors_cleanly() {
        let mut buf = BytesMut::new();
        encode_value(&Value::Str("hello".into()), &mut buf);
        let whole = buf.as_slice();
        for cut in 0..whole.len() {
            let mut s = &whole[..cut];
            assert!(cut == 0 || decode_value(&mut s).is_err(), "prefix of {cut} bytes");
        }
        let mut bogus: &[u8] = &[99, 1, 2];
        assert!(decode_value(&mut bogus).is_err());
        // A corrupt count can't drive a huge preallocation.
        let mut seq: &[u8] = &[TAG_SEQ, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
        assert!(decode_value(&mut seq).is_err());
    }

    #[test]
    fn frames_split_and_reassemble() {
        let mut wire = BytesMut::new();
        encode_frame(7, &Value::U64(42), &mut wire);
        encode_frame(9, &Value::Str("next".into()), &mut wire);
        let mut pending = Vec::new();
        let bytes = wire.as_slice();
        // Feed the stream one byte at a time: frames pop exactly when whole.
        let mut seen = Vec::new();
        for &b in bytes {
            pending.push(b);
            while let Some((corr, body)) = take_frame(&mut pending).unwrap() {
                seen.push((corr, decode_binary::<Value>(&body).unwrap()));
            }
        }
        assert_eq!(seen, vec![(7, Value::U64(42)), (9, Value::Str("next".into()))]);
        assert!(pending.is_empty());

        // The session splitter does the same for either codec, one byte per
        // read. JSONL lines are numbered by position; blank ones are skipped.
        for (proto, ids) in [(Proto::Binary, [7, 9]), (Proto::Jsonl, [0, 1])] {
            let mut wire = BytesMut::new();
            proto.encode(7, &Value::U64(42), &mut wire);
            if proto == Proto::Jsonl {
                wire.put_slice(b" \r\n");
            }
            proto.encode(9, &Value::Str("next".into()), &mut wire);
            let mut inbound = Inbound::new(proto, Vec::new());
            let mut seen = Vec::new();
            for byte in wire.as_slice().chunks(1) {
                assert_eq!(inbound.fill(byte).unwrap(), 1);
                while let Some((corr, body)) = inbound.take().unwrap() {
                    seen.push((corr, proto.decode::<Value>(body).unwrap()));
                }
            }
            assert_eq!(seen, vec![(ids[0], Value::U64(42)), (ids[1], Value::Str("next".into()))]);
        }
    }

    #[test]
    fn oversized_frame_lengths_are_rejected() {
        let mut pending = (u32::MAX).to_le_bytes().to_vec();
        pending.extend_from_slice(&[0; 16]);
        assert!(take_frame(&mut pending).is_err());
    }
}
