//! Hand-rolled binary codec for [`TreePMessage`].
//!
//! Layout: one tag byte per message / enum variant, fixed-width little-endian
//! integers, and `u32` length prefixes for variable-length sequences. The
//! format is self-contained (no schema negotiation) and deliberately boring:
//! the goal is a dependency-free wire encoding whose round-trip is easy to
//! test exhaustively.
//!
//! # Layout tables
//!
//! Every wire type implements the private `Wire` trait (`put` appends the
//! encoding, `get` consumes it), and the field order of each type is written
//! exactly once, as a row of one of two tables:
//!
//! * a `wire_structs!` row `PeerInfo { id, addr, max_level, summary }` says
//!   "the fields, in this order, each in its own type's encoding";
//! * a `wire_enums!` row `12 => LookupFound { request_id, target, .. }` says
//!   "tag byte 12, then the fields in this order".
//!
//! Each row expands to both directions, so encoder and decoder cannot drift.
//! `get` builds the value with a struct literal whose field types come from
//! the definition in `treep`, and `put` matches without a wildcard: a field
//! or a variant added there without a row here does not compile.
//!
//! Only types whose encoding involves a decision are written by hand: the
//! integers (length check before the read), `bool` and `Option` (a presence
//! byte other than 0 or 1 is rejected, not read as `false`/`None`), the two
//! sequence shapes (length prefix; pre-allocation capped, since the count
//! comes from the peer) and `KeyRange`, which is decoded through
//! [`KeyRange::new`] so that a range a peer wrote `hi` first still arrives
//! with `lo <= hi` — a struct row would build it unnormalised.
//!
//! `u8` deliberately has no `Wire` impl; tag and presence bytes go through
//! the one checked `get_u8`. That is what lets `Vec<u8>` have its own impl
//! (one `memcpy` for an 8 KiB value) next to the element-wise `Vec<T>`.
//!
//! # Adding a message
//!
//! 1. Add the variant to [`treep::TreePMessage`] (and its `MessageKind`).
//! 2. Add one row to the `TreePMessage` table below with the next free tag.
//!    Never renumber or reorder a row, nor reuse a retired tag: peers speak
//!    them.
//! 3. Add one `arb_message` arm in the `proptests` module and bump
//!    `VARIANTS`, so the round-trip and truncation tests draw it.
//! 4. Pin its bytes in a *new* golden module next to `wire_compat*`. The
//!    existing goldens are frozen — a change that needs one edited has
//!    changed the wire format of an old tag.

use bytes::{Buf, BufMut, BytesMut};
use simnet::NodeAddr;
use treep::{
    AggregatePartial, AggregateQuery, CharacteristicsSummary, KeyRange, MulticastPayload,
    MulticastPhase, NodeId, PeerInfo, ReadSource, ReplicaEntry, RoutingAlgorithm, RoutingUpdate,
    StampedValue, TreePMessage, VersionStamp,
};
use treep::{LookupRequest, RequestId};

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the message was complete.
    Truncated,
    /// An unknown tag byte was encountered.
    UnknownTag(u8),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "datagram truncated"),
            CodecError::UnknownTag(t) => write!(f, "unknown tag byte {t}"),
        }
    }
}

impl std::error::Error for CodecError {}

type Result<T> = std::result::Result<T, CodecError>;

// ---- public API -------------------------------------------------------------

/// Encode a message into a fresh buffer.
pub fn encode_message(msg: &TreePMessage) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(128);
    msg.put(&mut buf);
    buf.into()
}

/// Decode one message from a datagram.
pub fn decode_message(mut buf: &[u8]) -> Result<TreePMessage> {
    TreePMessage::get(&mut buf)
}

// ---- batch frames ----------------------------------------------------------

/// Tag byte marking a batch frame: several messages bundled into one
/// datagram. Chosen far above the per-message tags (1–35) so a batch can
/// never be confused with a single message.
const TAG_BATCH: u8 = 255;

/// Most elements a decoder reserves room for before it has read them: the
/// count comes from the peer, so a larger one grows the vector only as
/// elements actually decode.
const PREALLOC_CAP: usize = 1024;

/// Encode several messages into one batch datagram.
///
/// Layout: `TAG_BATCH`, `u32` message count, then each message as a
/// `u32` length prefix followed by its [`encode_message`] bytes.
pub fn encode_batch(msgs: &[TreePMessage]) -> Vec<u8> {
    let mut buf = vec![0; 5];
    msgs.iter().for_each(|msg| put_framed(&mut buf, msg));
    seal(&mut buf, msgs.len());
    buf
}

/// Pack messages for one peer, in order, into datagrams built in `buf` (the
/// caller's to reuse) and hand each to `send` with its message count. Each
/// message is encoded once, framed, after 5 bytes left for the batch header,
/// so `buf.len()` is the envelope's size: a message taking it past `max`
/// starts the next datagram, which only a message over `max` exceeds.
pub(crate) fn pack_datagrams<'m>(
    buf: &mut Vec<u8>,
    msgs: impl IntoIterator<Item = &'m TreePMessage>,
    max: usize,
    mut send: impl FnMut(&[u8], usize),
) {
    buf.clear();
    buf.resize(5, 0);
    let mut count = 0;
    for msg in msgs {
        let at = buf.len();
        put_framed(buf, msg);
        if count > 0 && buf.len() > max {
            send(seal(&mut buf[..at], count), count);
            buf.drain(5..at);
            count = 0;
        }
        count += 1;
    }
    if count > 0 {
        send(seal(buf, count), count);
    }
}

/// Write the header of a batch of `count` framed messages into `batch` and
/// return the datagram, or a lone message bare, as [`encode_message`] does.
fn seal(batch: &mut [u8], count: usize) -> &[u8] {
    batch[0] = TAG_BATCH;
    batch[1..5].copy_from_slice(&(count as u32).to_le_bytes());
    &batch[if count == 1 { 9 } else { 0 }..]
}

/// Append `msg`'s encoding to `buf` behind its `u32` length prefix.
fn put_framed(buf: &mut Vec<u8>, msg: &TreePMessage) {
    let at = buf.len();
    let mut out = BytesMut::from(std::mem::take(buf));
    0u32.put(&mut out);
    msg.put(&mut out);
    *buf = out.into();
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Decode a datagram that is either a single message or a batch frame.
///
/// Single-message datagrams (everything [`encode_message`] produces) pass
/// through unchanged, so peers that never batch remain wire-compatible.
pub fn decode_datagram(buf: &[u8]) -> Result<Vec<TreePMessage>> {
    let mut msgs = Vec::new();
    decode_datagram_into(buf, &mut msgs)?;
    Ok(msgs)
}

/// [`decode_datagram`] into the caller's vector: the datagram's messages
/// are appended to `out`, which a receive loop reuses, so a warm decode
/// allocates only what the messages themselves own. On an error `out` is
/// left as it was.
pub fn decode_datagram_into(buf: &[u8], out: &mut Vec<TreePMessage>) -> Result<()> {
    let start = out.len();
    decode_frames(buf, out).inspect_err(|_| out.truncate(start))
}

fn decode_frames(mut buf: &[u8], out: &mut Vec<TreePMessage>) -> Result<()> {
    if buf.first() != Some(&TAG_BATCH) {
        out.reserve_exact(1);
        out.push(decode_message(buf)?);
        return Ok(());
    }
    let _ = get_u8(&mut buf)?;
    let count = u32::get(&mut buf)? as usize;
    out.reserve_exact(count.min(PREALLOC_CAP));
    for _ in 0..count {
        let len = u32::get(&mut buf)? as usize;
        need(buf, len)?;
        out.push(decode_message(&buf[..len])?);
        buf = &buf[len..];
    }
    Ok(())
}

// ---- the Wire trait and its hand-written impls -------------------------------

/// A type with exactly one wire encoding. `get` reads back what `put` wrote
/// and returns an error — never panics — on anything else.
///
/// The non-generic `get`s are `#[inline]`: `Vec<T>::get` calls them once per
/// element from whichever codegen unit instantiates it, and without the
/// attribute each element of a keep-alive's update list costs a call and a
/// `Result` copied through memory.
trait Wire: Sized {
    /// Append the encoding of `self`.
    fn put(&self, buf: &mut BytesMut);
    /// Consume one value from the front of `buf`.
    fn get(buf: &mut &[u8]) -> Result<Self>;
}

/// The length check every fixed-width read makes first: the `bytes` getters
/// panic on a short buffer.
#[inline]
fn need(buf: &[u8], n: usize) -> Result<()> {
    if buf.remaining() < n {
        return Err(CodecError::Truncated);
    }
    Ok(())
}

/// The one checked read of a tag or presence byte.
#[inline]
fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    need(buf, 1)?;
    Ok(buf.get_u8())
}

impl Wire for u16 {
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u16_le(*self);
    }
    #[inline]
    fn get(buf: &mut &[u8]) -> Result<Self> {
        need(buf, 2)?;
        Ok(buf.get_u16_le())
    }
}

impl Wire for u32 {
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u32_le(*self);
    }
    #[inline]
    fn get(buf: &mut &[u8]) -> Result<Self> {
        need(buf, 4)?;
        Ok(buf.get_u32_le())
    }
}

impl Wire for u64 {
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u64_le(*self);
    }
    #[inline]
    fn get(buf: &mut &[u8]) -> Result<Self> {
        need(buf, 8)?;
        Ok(buf.get_u64_le())
    }
}

impl Wire for bool {
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
    #[inline]
    fn get(buf: &mut &[u8]) -> Result<Self> {
        match get_u8(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::UnknownTag(other)),
        }
    }
}

/// Presence byte (a `bool`, so 2…255 is an error), then the value if any.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut BytesMut) {
        self.is_some().put(buf);
        if let Some(value) = self {
            value.put(buf);
        }
    }
    fn get(buf: &mut &[u8]) -> Result<Self> {
        Ok(if bool::get(buf)? {
            Some(T::get(buf)?)
        } else {
            None
        })
    }
}

/// `u32` element count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, buf: &mut BytesMut) {
        (self.len() as u32).put(buf);
        for item in self {
            item.put(buf);
        }
    }
    fn get(buf: &mut &[u8]) -> Result<Self> {
        let n = u32::get(buf)? as usize;
        let mut out = Vec::with_capacity(n.min(PREALLOC_CAP));
        for _ in 0..n {
            out.push(T::get(buf)?);
        }
        Ok(out)
    }
}

/// `u32` byte count, then the bytes as one copy (see the module doc for why
/// this can sit beside the generic impl).
impl Wire for Vec<u8> {
    fn put(&self, buf: &mut BytesMut) {
        (self.len() as u32).put(buf);
        buf.put_slice(self);
    }
    fn get(buf: &mut &[u8]) -> Result<Self> {
        let n = u32::get(buf)? as usize;
        need(buf, n)?;
        let mut out = vec![0u8; n];
        buf.copy_to_slice(&mut out);
        Ok(out)
    }
}

/// Not a table row: `KeyRange::new` orders the two ends.
impl Wire for KeyRange {
    fn put(&self, buf: &mut BytesMut) {
        self.lo.put(buf);
        self.hi.put(buf);
    }
    #[inline]
    fn get(buf: &mut &[u8]) -> Result<Self> {
        Ok(KeyRange::new(NodeId::get(buf)?, NodeId::get(buf)?))
    }
}

// ---- layout tables ------------------------------------------------------------

/// Struct rows: `Type { field, .. }` encodes the fields in the order written
/// (Rust evaluates a struct literal's fields in source order, so the row
/// order is the wire order whatever the definition's is). A tuple struct's
/// only field is named `0`.
macro_rules! wire_structs {
    ($($ty:ident { $($field:tt),* })*) => {$(
        impl Wire for $ty {
            fn put(&self, buf: &mut BytesMut) {
                $(self.$field.put(buf);)*
            }
            #[inline]
            fn get(buf: &mut &[u8]) -> Result<Self> {
                Ok($ty { $($field: Wire::get(buf)?),* })
            }
        }
    )*};
}

/// Enum rows: `tag => Variant`, `tag => Variant(a)` or
/// `tag => Variant { field, .. }` encodes the tag byte, then the fields in
/// the order written. Two rows with one tag, or one variant, do not compile.
macro_rules! wire_enums {
    ($($ty:ident {
        $($tag:literal => $variant:ident $(($($elem:ident),*))? $({ $($field:ident),* })?,)*
    })*) => {$(
        #[deny(unreachable_patterns)]
        impl Wire for $ty {
            fn put(&self, buf: &mut BytesMut) {
                match self {$(
                    $ty::$variant $(($($elem),*))? $({ $($field),* })? => {
                        buf.put_u8($tag);
                        $($($elem.put(buf);)*)?
                        $($($field.put(buf);)*)?
                    }
                )*}
            }
            #[inline]
            fn get(buf: &mut &[u8]) -> Result<Self> {
                Ok(match get_u8(buf)? {
                    $($tag => $ty::$variant
                        $(($({ let $elem = Wire::get(buf)?; $elem }),*))?
                        $({ $($field: Wire::get(buf)?),* })?,)*
                    other => return Err(CodecError::UnknownTag(other)),
                })
            }
        }
    )*};
}

wire_structs! {
    NodeId { 0 }
    NodeAddr { 0 }
    RequestId { 0 }
    CharacteristicsSummary { score_milli, max_children }
    PeerInfo { id, addr, max_level, summary }
    VersionStamp { version, origin }
    StampedValue { stamp, value }
    ReplicaEntry { key, value }
    LookupRequest { request_id, origin, target, algorithm, ttl, visited, fallbacks }
}

wire_enums! {
    RoutingAlgorithm {
        0 => Greedy,
        1 => NonGreedy,
        2 => NonGreedyFallback,
    }
    MulticastPhase {
        0 => Up,
        1 => BusLeft,
        2 => BusRight,
        3 => Down,
    }
    AggregateQuery {
        0 => CountNodes,
        1 => MaxCapability,
        2 => DhtKeyDigest,
        3 => KeysInRange,
    }
    ReadSource {
        0 => Responsible,
        1 => Replica,
        2 => Cache,
    }
    RoutingUpdate {
        0 => Contact { peer },
        1 => LevelMember { level, peer },
        2 => ParentOf { peer },
        3 => ChildOf { peer },
        4 => Superior { peer },
    }
    MulticastPayload {
        0 => Data(data),
        1 => Aggregate(query),
        2 => Topic { topic, data },
    }
    AggregatePartial {
        0 => Count(count),
        1 => MaxCapability(score_milli),
        2 => Digest { xor, count },
        3 => Keys(keys),
    }
    TreePMessage {
        1 => JoinRequest { joiner },
        2 => JoinAck { responder, contacts, parent },
        3 => KeepAlive { sender, updates },
        4 => KeepAliveAck { sender, updates },
        5 => ChildReport { child, span },
        6 => ChildReportAck { parent, superiors },
        7 => ElectionCall { level, caller },
        8 => ParentAnnounce { level, parent },
        9 => ParentAccept { child },
        10 => Demotion { node, from_level },
        11 => Lookup(request),
        12 => LookupFound { request_id, target, result, hops, algorithm },
        13 => LookupNotFound { request_id, target, hops, algorithm },
        14 => DhtPut { request_id, origin, key, value, ttl },
        15 => DhtPutAck { request_id, key, stored_at },
        16 => DhtGet { request_id, origin, key, ttl },
        17 => DhtGetReply { request_id, key, value, responder },
        18 => MulticastDown { origin, request_id, range, payload, budget, hops, phase, bus_level },
        19 => AggregateUp { origin, request_id, query, partial, truncated, final_answer },
        20 => ReplicaPut { sender, key, value },
        21 => ReplicaSyncRequest { sender, range, keys },
        22 => ReplicaSyncReply { sender, range, entries, want },
        23 => MulticastAck { origin, request_id },
        24 => AggregateAck { origin, request_id },
        25 => GetVersioned { request_id, origin, key, ttl, min_stamp, path },
        26 => GetVersionedReply { request_id, origin, key, value, source, hops, responder, path },
        27 => PutVersioned { request_id, origin, key, stamp, value, ttl },
        28 => PutVersionedAck { request_id, key, stamp, stored_at },
        29 => ReadRepair { sender, key, stamp, value },
        30 => ReadVerify { server, key, served_stamp, ttl },
        // 31–33 (`Subscribe`, `SubscribeAck`, `Unsubscribe`, the subscriber
        // directory) are retired: they decode as `UnknownTag`, never reused.
        34 => FilterReport { child, topics, overflow },
        35 => ReplicaDigest { sender, range, xor, count },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treep::{ChildPolicy, NodeCharacteristics};

    fn peer(id: u64, level: u32) -> PeerInfo {
        PeerInfo {
            id: NodeId(id),
            addr: NodeAddr(id * 3 + 1),
            max_level: level,
            summary: CharacteristicsSummary::of(
                &NodeCharacteristics::strong(),
                ChildPolicy::Fixed(4),
            ),
        }
    }

    fn all_messages() -> Vec<TreePMessage> {
        let mut req = LookupRequest::new(
            RequestId(9),
            peer(1, 0),
            NodeId(42),
            RoutingAlgorithm::NonGreedyFallback,
        );
        req.advance(NodeAddr(5));
        req.advance(NodeAddr(6));
        req.fallbacks.push(peer(7, 2));
        vec![
            TreePMessage::JoinRequest { joiner: peer(1, 0) },
            TreePMessage::JoinAck {
                responder: peer(2, 1),
                contacts: vec![peer(3, 0), peer(4, 0)],
                parent: Some(peer(5, 1)),
            },
            TreePMessage::JoinAck {
                responder: peer(2, 1),
                contacts: vec![],
                parent: None,
            },
            TreePMessage::KeepAlive {
                sender: peer(6, 0),
                updates: vec![
                    RoutingUpdate::Contact { peer: peer(7, 0) },
                    RoutingUpdate::LevelMember {
                        level: 2,
                        peer: peer(8, 2),
                    },
                    RoutingUpdate::ParentOf { peer: peer(9, 1) },
                    RoutingUpdate::ChildOf { peer: peer(10, 0) },
                    RoutingUpdate::Superior { peer: peer(11, 3) },
                ],
            },
            TreePMessage::KeepAliveAck {
                sender: peer(6, 0),
                updates: vec![],
            },
            TreePMessage::ChildReport {
                child: peer(12, 0),
                span: KeyRange::new(NodeId(8), NodeId(24)),
            },
            TreePMessage::ChildReportAck {
                parent: peer(13, 1),
                superiors: vec![peer(14, 2)],
            },
            TreePMessage::ElectionCall {
                level: 3,
                caller: peer(15, 2),
            },
            TreePMessage::ParentAnnounce {
                level: 1,
                parent: peer(16, 1),
            },
            TreePMessage::ParentAccept { child: peer(17, 0) },
            TreePMessage::Demotion {
                node: peer(18, 2),
                from_level: 2,
            },
            TreePMessage::Lookup(req),
            TreePMessage::LookupFound {
                request_id: RequestId(100),
                target: NodeId(55),
                result: peer(19, 0),
                hops: 4,
                algorithm: RoutingAlgorithm::Greedy,
            },
            TreePMessage::LookupNotFound {
                request_id: RequestId(101),
                target: NodeId(56),
                hops: 7,
                algorithm: RoutingAlgorithm::NonGreedy,
            },
            TreePMessage::DhtPut {
                request_id: RequestId(102),
                origin: peer(20, 0),
                key: NodeId(77),
                value: b"hello world".to_vec(),
                ttl: 3,
            },
            TreePMessage::DhtPutAck {
                request_id: RequestId(102),
                key: NodeId(77),
                stored_at: peer(21, 1),
            },
            TreePMessage::DhtGet {
                request_id: RequestId(103),
                origin: peer(22, 0),
                key: NodeId(78),
                ttl: 0,
            },
            TreePMessage::DhtGetReply {
                request_id: RequestId(103),
                key: NodeId(78),
                value: Some(b"value".to_vec()),
                responder: peer(23, 0),
            },
            TreePMessage::DhtGetReply {
                request_id: RequestId(104),
                key: NodeId(79),
                value: None,
                responder: peer(24, 0),
            },
            TreePMessage::ReplicaPut {
                sender: peer(30, 0),
                key: NodeId(80),
                value: b"copy".to_vec(),
            },
            TreePMessage::ReplicaSyncRequest {
                sender: peer(31, 0),
                range: KeyRange::new(NodeId(10), NodeId(90)),
                keys: vec![NodeId(20), NodeId(40)],
            },
            TreePMessage::ReplicaSyncRequest {
                sender: peer(31, 0),
                range: KeyRange::new(NodeId(10), NodeId(90)),
                keys: vec![],
            },
            TreePMessage::ReplicaSyncReply {
                sender: peer(32, 1),
                range: KeyRange::new(NodeId(10), NodeId(90)),
                entries: vec![
                    ReplicaEntry {
                        key: NodeId(30),
                        value: b"v30".to_vec(),
                    },
                    ReplicaEntry {
                        key: NodeId(50),
                        value: vec![],
                    },
                ],
                want: vec![NodeId(20)],
            },
            TreePMessage::ReplicaSyncReply {
                sender: peer(32, 1),
                range: KeyRange::new(NodeId(0), NodeId(0)),
                entries: vec![],
                want: vec![],
            },
            TreePMessage::MulticastDown {
                origin: peer(25, 0),
                request_id: RequestId(105),
                range: KeyRange::new(NodeId(100), NodeId(900)),
                payload: MulticastPayload::Data(b"announce".to_vec()),
                budget: 64,
                hops: 2,
                phase: MulticastPhase::Up,
                bus_level: 0,
            },
            TreePMessage::MulticastDown {
                origin: peer(26, 1),
                request_id: RequestId(106),
                range: KeyRange::new(NodeId(0), NodeId(50)),
                payload: MulticastPayload::Aggregate(AggregateQuery::CountNodes),
                budget: 12,
                hops: 5,
                phase: MulticastPhase::BusLeft,
                bus_level: 3,
            },
            TreePMessage::MulticastDown {
                origin: peer(27, 2),
                request_id: RequestId(107),
                range: KeyRange::new(NodeId(7), NodeId(7)),
                payload: MulticastPayload::Data(vec![]),
                budget: 1,
                hops: 30,
                phase: MulticastPhase::Down,
                bus_level: 2,
            },
            TreePMessage::AggregateUp {
                origin: peer(28, 0),
                request_id: RequestId(108),
                query: AggregateQuery::MaxCapability,
                partial: AggregatePartial::MaxCapability(750),
                truncated: false,
                final_answer: false,
            },
            TreePMessage::AggregateUp {
                origin: peer(29, 0),
                request_id: RequestId(109),
                query: AggregateQuery::DhtKeyDigest,
                partial: AggregatePartial::Digest {
                    xor: 0xDEAD_BEEF,
                    count: 17,
                },
                truncated: true,
                final_answer: true,
            },
            TreePMessage::MulticastAck {
                origin: NodeAddr(76),
                request_id: RequestId(105),
            },
            TreePMessage::AggregateAck {
                origin: NodeAddr(79),
                request_id: RequestId(108),
            },
            TreePMessage::GetVersioned {
                request_id: RequestId(110),
                origin: peer(30, 0),
                key: NodeId(88),
                ttl: 12,
                min_stamp: Some(VersionStamp {
                    version: 3,
                    origin: NodeId(30),
                }),
                path: vec![NodeAddr(91), NodeAddr(94)],
            },
            TreePMessage::GetVersioned {
                request_id: RequestId(111),
                origin: peer(31, 0),
                key: NodeId(89),
                ttl: 12,
                min_stamp: None,
                path: vec![],
            },
            TreePMessage::GetVersionedReply {
                request_id: RequestId(110),
                origin: NodeAddr(91),
                key: NodeId(88),
                value: Some(StampedValue {
                    stamp: VersionStamp {
                        version: 4,
                        origin: NodeId(32),
                    },
                    value: b"cached".to_vec(),
                }),
                source: ReadSource::Cache,
                hops: 2,
                responder: peer(33, 1),
                path: vec![NodeAddr(91)],
            },
            TreePMessage::GetVersionedReply {
                request_id: RequestId(111),
                origin: NodeAddr(94),
                key: NodeId(89),
                value: None,
                source: ReadSource::Responsible,
                hops: 5,
                responder: peer(34, 0),
                path: vec![],
            },
            TreePMessage::PutVersioned {
                request_id: RequestId(112),
                origin: peer(35, 0),
                key: NodeId(90),
                stamp: VersionStamp {
                    version: 7,
                    origin: NodeId(35),
                },
                value: b"fresh".to_vec(),
                ttl: 9,
            },
            TreePMessage::PutVersionedAck {
                request_id: RequestId(112),
                key: NodeId(90),
                stamp: VersionStamp {
                    version: 7,
                    origin: NodeId(35),
                },
                stored_at: peer(36, 1),
            },
            TreePMessage::ReadRepair {
                sender: peer(37, 1),
                key: NodeId(90),
                stamp: VersionStamp {
                    version: 7,
                    origin: NodeId(35),
                },
                value: b"fresh".to_vec(),
            },
            TreePMessage::ReadVerify {
                server: peer(38, 0),
                key: NodeId(90),
                served_stamp: VersionStamp {
                    version: 6,
                    origin: NodeId(20),
                },
                ttl: 8,
            },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in all_messages() {
            let encoded = encode_message(&msg);
            let decoded = decode_message(&encoded).expect("decode");
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn truncated_datagrams_are_rejected() {
        for msg in all_messages() {
            let encoded = encode_message(&msg);
            for cut in 0..encoded.len() {
                let err = decode_message(&encoded[..cut]);
                assert!(err.is_err(), "prefix of length {cut} must not decode");
            }
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert_eq!(decode_message(&[99, 0, 0]), Err(CodecError::UnknownTag(99)));
        assert_eq!(decode_message(&[]), Err(CodecError::Truncated));
        // The retired tags 31–33, under a body laid out as `Subscribe` was
        // (request id, origin, topic, ttl).
        let origin = &encode_message(&TreePMessage::JoinRequest { joiner: peer(1, 0) })[1..];
        let body = [&7u64.to_le_bytes()[..], origin, &[0; 12]].concat();
        for tag in 31..=33u8 {
            let frame = [&[tag][..], &body].concat();
            assert_eq!(decode_message(&frame), Err(CodecError::UnknownTag(tag)));
        }
    }

    #[test]
    fn option_presence_byte_must_be_0_or_1() {
        // Accepting 2…255 as `None` would parse the rest of a hostile
        // datagram as the fields that follow the option.
        let mut join_ack = encode_message(&TreePMessage::JoinAck {
            responder: peer(2, 1),
            contacts: vec![],
            parent: None,
        });
        *join_ack.last_mut().unwrap() = 2;
        assert_eq!(decode_message(&join_ack), Err(CodecError::UnknownTag(2)));

        let mut get_reply = encode_message(&TreePMessage::DhtGetReply {
            request_id: RequestId(104),
            key: NodeId(79),
            value: None,
            responder: peer(24, 0),
        });
        // tag, request_id, key, then the presence byte.
        assert_eq!(get_reply[17], 0);
        get_reply[17] = 0xFF;
        assert_eq!(
            decode_message(&get_reply),
            Err(CodecError::UnknownTag(0xFF))
        );
    }

    #[test]
    fn inverted_key_range_is_normalised() {
        let msg = TreePMessage::ChildReport {
            child: peer(12, 0),
            span: KeyRange::new(NodeId(8), NodeId(24)),
        };
        let mut encoded = encode_message(&msg);
        // The span is the last 16 bytes, `lo` then `hi`: write `hi` first.
        let span = encoded.len() - 16;
        encoded[span..].rotate_left(8);
        assert_ne!(encoded, encode_message(&msg));
        assert_eq!(decode_message(&encoded), Ok(msg));
    }

    #[test]
    fn sequence_count_bomb_is_truncated_not_allocated() {
        // A count of u32::MAX over a short frame: reserving what the peer
        // claims (128 GiB of `PeerInfo`) would abort, so returning at all
        // shows the reservation was capped.
        let mut join_ack = encode_message(&TreePMessage::JoinAck {
            responder: peer(2, 1),
            contacts: vec![],
            parent: None,
        });
        // Ends with the `contacts` count and the `parent` presence byte.
        let count = join_ack.len() - 5;
        join_ack[count..count + 4].fill(0xFF);
        assert_eq!(decode_message(&join_ack), Err(CodecError::Truncated));

        let mut sync = encode_message(&TreePMessage::ReplicaSyncRequest {
            sender: peer(31, 0),
            range: KeyRange::new(NodeId(10), NodeId(90)),
            keys: vec![],
        });
        // Ends with the `keys` count.
        let count = sync.len() - 4;
        sync[count..].fill(0xFF);
        assert_eq!(decode_message(&sync), Err(CodecError::Truncated));
    }

    #[test]
    fn error_display_is_informative() {
        assert_eq!(CodecError::Truncated.to_string(), "datagram truncated");
        assert_eq!(CodecError::UnknownTag(7).to_string(), "unknown tag byte 7");
    }

    #[test]
    fn encoding_is_compact() {
        let keepalive = TreePMessage::KeepAlive {
            sender: peer(1, 0),
            updates: vec![],
        };
        assert!(
            encode_message(&keepalive).len() < 64,
            "keep-alives must fit comfortably in one datagram"
        );
    }

    #[test]
    fn batch_round_trips_every_message() {
        let msgs = all_messages();
        let datagram = encode_batch(&msgs);
        let decoded = decode_datagram(&datagram).expect("batch decodes");
        assert_eq!(decoded.len(), msgs.len());
        for (orig, back) in msgs.iter().zip(&decoded) {
            // Compare via re-encoding: the per-message round-trip tests
            // already pin encode∘decode = id.
            assert_eq!(encode_message(orig), encode_message(back));
        }
    }

    #[test]
    fn single_message_datagrams_pass_through_unbatched() {
        for msg in all_messages() {
            let bare = encode_message(&msg);
            assert_ne!(bare[0], 255, "message tags must stay clear of TAG_BATCH");
            let decoded = decode_datagram(&bare).expect("single frame decodes");
            assert_eq!(decoded.len(), 1);
            assert_eq!(encode_message(&decoded[0]), bare);
        }
    }

    #[test]
    fn truncated_batches_are_rejected_not_panicking() {
        let msgs = all_messages();
        let datagram = encode_batch(&msgs[..3]);
        // A reused vector keeps what it held: no frame of a bad datagram.
        let mut out = vec![msgs[4].clone()];
        for cut in 0..datagram.len() {
            assert!(decode_datagram(&datagram[..cut]).is_err());
            assert!(decode_datagram_into(&datagram[..cut], &mut out).is_err());
            assert_eq!(out.len(), 1, "cut at {cut}");
        }
        let empty = encode_batch(&[]);
        assert_eq!(decode_datagram(&empty).expect("empty batch").len(), 0);
    }

    /// Every datagram [`pack_datagrams`] writes for `msgs` under `max`, with
    /// the number of messages it carries.
    fn packed(msgs: &[TreePMessage], max: usize) -> Vec<(Vec<u8>, usize)> {
        // Stale bytes from an earlier call must not leak into a datagram.
        let mut buf = vec![0xAB; 64];
        let mut datagrams = Vec::new();
        pack_datagrams(&mut buf, msgs, max, |datagram, count| {
            datagrams.push((datagram.to_vec(), count))
        });
        datagrams
    }

    #[test]
    fn a_lone_packed_message_goes_out_as_its_bare_encoding() {
        for msg in all_messages() {
            let bare = encode_message(&msg);
            assert_eq!(packed(std::slice::from_ref(&msg), usize::MAX), [(bare, 1)]);
        }
        assert!(packed(&[], usize::MAX).is_empty());
    }

    #[test]
    fn packed_messages_that_fit_go_out_as_their_batch_encoding() {
        let msgs = all_messages();
        assert_eq!(
            packed(&msgs, usize::MAX),
            [(encode_batch(&msgs), msgs.len())]
        );
    }

    #[test]
    fn a_pack_splits_exactly_at_the_bound() {
        let msgs = &all_messages()[..3];
        let bare = |msg: &TreePMessage| (encode_message(msg), 1);
        let two = encode_batch(&msgs[..2]);
        assert_eq!(
            packed(msgs, two.len()),
            [(two.clone(), 2), bare(&msgs[2])],
            "the first two fit at their envelope's size; the third starts the next datagram"
        );
        assert_eq!(
            packed(&msgs[..2], two.len() - 1),
            [bare(&msgs[0]), bare(&msgs[1])],
            "one byte less splits them"
        );
        // A message that starts the next datagram batches with those after it.
        let four = vec![msgs[0].clone(); 4];
        let pair = encode_batch(&four[..2]);
        assert_eq!(packed(&four, pair.len()), [(pair.clone(), 2), (pair, 2)]);
    }

    #[test]
    fn an_oversized_message_still_goes_out_alone() {
        let msgs = &all_messages()[..3];
        let alone: Vec<_> = msgs.iter().map(|m| (encode_message(m), 1)).collect();
        assert_eq!(packed(msgs, 1), alone);
    }
}

#[cfg(test)]
mod wire_compat {
    //! Golden wire-format test: the encodings of the pre-reliability
    //! message set (tags 1–22) are pinned by a checksum, guarding the
    //! `max_retransmits = 0` off-path — a deployment that never sends acks
    //! must stay byte-identical on the wire to one built before the
    //! reliability layer existed. Adding new tags (23+) is fine; changing
    //! any byte an old tag produces is not.
    use super::*;

    /// A peer with fully literal fields (no helpers whose defaults could
    /// drift), so the golden bytes depend only on the codec. Shared by the
    /// three golden modules.
    pub(super) fn peer(id: u64, addr: u64, level: u32) -> PeerInfo {
        PeerInfo {
            id: NodeId(id),
            addr: NodeAddr(addr),
            max_level: level,
            summary: CharacteristicsSummary {
                score_milli: 640,
                max_children: 4,
            },
        }
    }

    /// One deterministic message per legacy tag, in tag order 1–22.
    fn legacy_messages() -> Vec<TreePMessage> {
        let mut req = LookupRequest::new(
            RequestId(900),
            peer(31, 131, 0),
            NodeId(4_242),
            RoutingAlgorithm::NonGreedyFallback,
        );
        req.advance(NodeAddr(5));
        req.fallbacks.push(peer(32, 132, 2));
        vec![
            TreePMessage::JoinRequest {
                joiner: peer(1, 101, 0),
            },
            TreePMessage::JoinAck {
                responder: peer(2, 102, 1),
                contacts: vec![peer(3, 103, 0)],
                parent: Some(peer(4, 104, 1)),
            },
            TreePMessage::KeepAlive {
                sender: peer(5, 105, 0),
                updates: vec![
                    RoutingUpdate::Contact {
                        peer: peer(6, 106, 0),
                    },
                    RoutingUpdate::LevelMember {
                        level: 2,
                        peer: peer(7, 107, 2),
                    },
                    RoutingUpdate::ParentOf {
                        peer: peer(8, 108, 1),
                    },
                    RoutingUpdate::ChildOf {
                        peer: peer(9, 109, 0),
                    },
                    RoutingUpdate::Superior {
                        peer: peer(10, 110, 3),
                    },
                ],
            },
            TreePMessage::KeepAliveAck {
                sender: peer(11, 111, 0),
                updates: vec![],
            },
            TreePMessage::ChildReport {
                child: peer(12, 112, 0),
                span: KeyRange::new(NodeId(100), NodeId(900)),
            },
            TreePMessage::ChildReportAck {
                parent: peer(13, 113, 1),
                superiors: vec![peer(14, 114, 2)],
            },
            TreePMessage::ElectionCall {
                level: 3,
                caller: peer(15, 115, 2),
            },
            TreePMessage::ParentAnnounce {
                level: 1,
                parent: peer(16, 116, 1),
            },
            TreePMessage::ParentAccept {
                child: peer(17, 117, 0),
            },
            TreePMessage::Demotion {
                node: peer(18, 118, 2),
                from_level: 2,
            },
            TreePMessage::Lookup(req),
            TreePMessage::LookupFound {
                request_id: RequestId(901),
                target: NodeId(55),
                result: peer(19, 119, 0),
                hops: 4,
                algorithm: RoutingAlgorithm::Greedy,
            },
            TreePMessage::LookupNotFound {
                request_id: RequestId(902),
                target: NodeId(56),
                hops: 7,
                algorithm: RoutingAlgorithm::NonGreedy,
            },
            TreePMessage::DhtPut {
                request_id: RequestId(903),
                origin: peer(20, 120, 0),
                key: NodeId(77),
                value: b"wire".to_vec(),
                ttl: 3,
            },
            TreePMessage::DhtPutAck {
                request_id: RequestId(903),
                key: NodeId(77),
                stored_at: peer(21, 121, 1),
            },
            TreePMessage::DhtGet {
                request_id: RequestId(904),
                origin: peer(22, 122, 0),
                key: NodeId(78),
                ttl: 9,
            },
            TreePMessage::DhtGetReply {
                request_id: RequestId(904),
                key: NodeId(78),
                value: Some(b"v".to_vec()),
                responder: peer(23, 123, 0),
            },
            TreePMessage::MulticastDown {
                origin: peer(24, 124, 0),
                request_id: RequestId(905),
                range: KeyRange::new(NodeId(10), NodeId(90)),
                payload: MulticastPayload::Data(b"mc".to_vec()),
                budget: 64,
                hops: 2,
                phase: MulticastPhase::BusRight,
                bus_level: 3,
            },
            TreePMessage::AggregateUp {
                origin: peer(25, 125, 0),
                request_id: RequestId(906),
                query: AggregateQuery::DhtKeyDigest,
                partial: AggregatePartial::Digest { xor: 77, count: 3 },
                truncated: true,
                final_answer: false,
            },
            TreePMessage::ReplicaPut {
                sender: peer(26, 126, 0),
                key: NodeId(80),
                value: b"copy".to_vec(),
            },
            TreePMessage::ReplicaSyncRequest {
                sender: peer(27, 127, 0),
                range: KeyRange::new(NodeId(10), NodeId(90)),
                keys: vec![NodeId(20), NodeId(40)],
            },
            TreePMessage::ReplicaSyncReply {
                sender: peer(28, 128, 1),
                range: KeyRange::new(NodeId(10), NodeId(90)),
                entries: vec![ReplicaEntry {
                    key: NodeId(30),
                    value: b"e".to_vec(),
                }],
                want: vec![NodeId(20)],
            },
        ]
    }

    fn fnv1a64(bytes: &[u8]) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// FNV-1a digest and total length of the fixtures' encodings laid end
    /// to end, after checking that each one decodes back to itself. The
    /// legacy golden was pinned over `u32`-length-prefixed frames, the two
    /// later ones over bare frames; `length_prefixed` says which.
    pub(super) fn golden(messages: &[TreePMessage], length_prefixed: bool) -> (u64, usize) {
        let mut all = Vec::new();
        for msg in messages {
            let encoded = encode_message(msg);
            assert_eq!(decode_message(&encoded).as_ref(), Ok(msg));
            if length_prefixed {
                all.extend_from_slice(&(encoded.len() as u32).to_le_bytes());
            }
            all.extend_from_slice(&encoded);
        }
        (fnv1a64(&all), all.len())
    }

    #[test]
    fn legacy_tags_encode_byte_identically() {
        let messages = legacy_messages();
        assert_eq!(messages.len(), 22, "one fixture per legacy tag");
        for (i, msg) in messages.iter().enumerate() {
            assert_eq!(
                encode_message(msg)[0],
                (i + 1) as u8,
                "fixture {i} must encode with tag {}",
                i + 1
            );
        }
        let (digest, len) = golden(&messages, true);
        // The pinned digest of every legacy encoding. If this assertion
        // fails, the wire format of a pre-reliability message changed —
        // which breaks `max_retransmits = 0` interoperability with already
        // deployed nodes. Extend the protocol with new tags instead.
        assert_eq!(
            digest, 0x1A2D_D1FA_DD8A_2D1F_u64,
            "legacy wire encoding changed (total {len} bytes)"
        );
        assert_eq!(len, 1278, "legacy encodings changed length");
    }
}

#[cfg(test)]
mod wire_compat_readpath {
    //! Second golden wire-format test: pins the encodings of the
    //! reliability tags (23–24) and the read-path tags (25–30) introduced
    //! after the legacy golden above was frozen. With `replica_reads` and
    //! the hot-key cache both defaulting to off, a node
    //! never emits these tags — but once two deployments opt in they must
    //! agree on every byte, so the new tags get their own checksum.
    use super::wire_compat::{golden, peer};
    use super::*;

    fn stamp(version: u64, origin: u64) -> VersionStamp {
        VersionStamp {
            version,
            origin: NodeId(origin),
        }
    }

    /// One deterministic message per post-legacy tag, in tag order 23–30.
    /// Optional fields appear once populated and once empty where a single
    /// fixture cannot cover both.
    fn readpath_messages() -> Vec<TreePMessage> {
        vec![
            TreePMessage::MulticastAck {
                origin: NodeAddr(501),
                request_id: RequestId(901),
            },
            TreePMessage::AggregateAck {
                origin: NodeAddr(502),
                request_id: RequestId(902),
            },
            TreePMessage::GetVersioned {
                request_id: RequestId(903),
                origin: peer(41, 141, 0),
                key: NodeId(7_000),
                ttl: 16,
                min_stamp: Some(stamp(5, 41)),
                path: vec![NodeAddr(142), NodeAddr(143)],
            },
            TreePMessage::GetVersionedReply {
                request_id: RequestId(903),
                origin: NodeAddr(141),
                key: NodeId(7_000),
                value: Some(StampedValue {
                    stamp: stamp(6, 42),
                    value: b"pinned".to_vec(),
                }),
                source: ReadSource::Replica,
                hops: 3,
                responder: peer(42, 142, 1),
                path: vec![NodeAddr(142)],
            },
            TreePMessage::GetVersionedReply {
                request_id: RequestId(904),
                origin: NodeAddr(144),
                key: NodeId(7_001),
                value: None,
                source: ReadSource::Responsible,
                hops: 4,
                responder: peer(43, 143, 0),
                path: vec![],
            },
            TreePMessage::PutVersioned {
                request_id: RequestId(905),
                origin: peer(44, 144, 0),
                key: NodeId(7_002),
                stamp: stamp(9, 44),
                value: b"payload".to_vec(),
                ttl: 11,
            },
            TreePMessage::PutVersionedAck {
                request_id: RequestId(905),
                key: NodeId(7_002),
                stamp: stamp(9, 44),
                stored_at: peer(45, 145, 2),
            },
            TreePMessage::ReadRepair {
                sender: peer(46, 146, 1),
                key: NodeId(7_002),
                stamp: stamp(9, 44),
                value: b"payload".to_vec(),
            },
            TreePMessage::ReadVerify {
                server: peer(47, 147, 0),
                key: NodeId(7_002),
                served_stamp: stamp(8, 30),
                ttl: 10,
            },
        ]
    }

    #[test]
    fn readpath_tag_encodings_are_frozen() {
        let messages = readpath_messages();
        let expected_tags: &[u8] = &[23, 24, 25, 26, 26, 27, 28, 29, 30];
        assert_eq!(messages.len(), expected_tags.len());
        for (msg, want_tag) in messages.iter().zip(expected_tags) {
            let tag = encode_message(msg)[0];
            assert_eq!(tag, *want_tag, "tag byte moved for {:?}", msg.kind());
        }
        assert_eq!(
            golden(&messages, false),
            (0xCD5D_0BB9_4CB2_16A3_u64, 524),
            "read-path wire format changed; if intentional, bump the \
             protocol notes and re-pin this checksum"
        );
    }
}

#[cfg(test)]
mod wire_compat_pubsub {
    //! Third golden wire-format test: pins the pub/sub tag (34) plus
    //! the pub/sub extensions threaded through pre-existing tags — the
    //! `Topic` multicast payload, the `KeysInRange` aggregate query and the
    //! `Keys` convergecast partial. With `pubsub_enabled` defaulting to
    //! off a node never emits any of these, so the legacy and read-path
    //! goldens stay byte-identical; this checksum freezes what opted-in
    //! deployments exchange.
    //!
    //! Tags 31–33, the subscriber-directory registration, are retired. Their
    //! three fixtures left this list, and the checksum below is the value the
    //! code that still spoke them computes over the four that remain, so no
    //! byte a surviving message produces moved.
    use super::wire_compat::{golden, peer};
    use super::*;

    /// The pub/sub tag 34, filled and overflowed, then the extended
    /// payload/query/partial encodings under tags 18–19.
    fn pubsub_messages() -> Vec<TreePMessage> {
        vec![
            TreePMessage::FilterReport {
                child: peer(53, 153, 0),
                topics: vec![NodeId(8_000), NodeId(8_001)],
                overflow: false,
            },
            TreePMessage::FilterReport {
                child: peer(54, 154, 1),
                topics: vec![],
                overflow: true,
            },
            TreePMessage::MulticastDown {
                origin: peer(55, 155, 0),
                request_id: RequestId(913),
                range: KeyRange::new(NodeId(0), NodeId(u64::MAX)),
                payload: MulticastPayload::Topic {
                    topic: NodeId(8_000),
                    data: b"published".to_vec(),
                },
                budget: 64,
                hops: 2,
                phase: MulticastPhase::Down,
                bus_level: 1,
            },
            TreePMessage::AggregateUp {
                origin: peer(56, 156, 0),
                request_id: RequestId(914),
                query: AggregateQuery::KeysInRange,
                partial: AggregatePartial::Keys(vec![NodeId(10), NodeId(20), NodeId(30)]),
                truncated: false,
                final_answer: true,
            },
        ]
    }

    #[test]
    fn pubsub_tag_encodings_are_frozen() {
        let messages = pubsub_messages();
        let expected_tags: &[u8] = &[34, 34, 18, 19];
        assert_eq!(messages.len(), expected_tags.len());
        for (msg, want_tag) in messages.iter().zip(expected_tags) {
            let tag = encode_message(msg)[0];
            assert_eq!(tag, *want_tag, "tag byte moved for {:?}", msg.kind());
        }
        assert_eq!(
            golden(&messages, false),
            (0x10FE_FB97_2D86_EB10_u64, 233),
            "pub/sub wire format changed; if intentional, bump the \
             protocol notes and re-pin this checksum"
        );
    }
}

#[cfg(test)]
mod wire_compat_replica_digest {
    //! Fourth golden wire-format test: pins tag 35, the pairwise replica
    //! digest that replaced the replication layer's tree-wide probe. The
    //! message is small enough to pin byte by byte rather than by checksum.
    //! With `replication_factor` defaulting to 1 a node never emits it, so
    //! the three goldens above stay byte-identical.
    use super::wire_compat::peer;
    use super::*;

    #[test]
    fn replica_digest_encoding_is_frozen() {
        let msg = TreePMessage::ReplicaDigest {
            sender: peer(57, 157, 1),
            range: KeyRange::new(NodeId(0x1000), NodeId(0x2fff)),
            xor: 0x0123_4567_89ab_cdef,
            count: 3,
        };
        let mut want = vec![35u8];
        want.extend_from_slice(&57u64.to_le_bytes()); // sender.id
        want.extend_from_slice(&157u64.to_le_bytes()); // sender.addr
        want.extend_from_slice(&1u32.to_le_bytes()); // sender.max_level
        want.extend_from_slice(&640u16.to_le_bytes()); // summary.score_milli
        want.extend_from_slice(&4u32.to_le_bytes()); // summary.max_children
        want.extend_from_slice(&0x1000u64.to_le_bytes()); // range.lo
        want.extend_from_slice(&0x2fffu64.to_le_bytes()); // range.hi
        want.extend_from_slice(&0x0123_4567_89ab_cdefu64.to_le_bytes()); // xor
        want.extend_from_slice(&3u64.to_le_bytes()); // count
        assert_eq!(want.len(), 59);
        assert_eq!(encode_message(&msg), want, "tag 35 changed on the wire");
        assert_eq!(decode_message(&want), Ok(msg));
    }
}

#[cfg(test)]
mod proptests {
    //! Randomised round-trip checks over every message variant. The offline
    //! build has no `proptest`, so a deterministic xorshift drives many
    //! random cases; a failing seed reproduces exactly.
    use super::*;
    use std::collections::BTreeSet;
    use treep::{MessageKind, RoutingUpdate};

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn arb_peer(state: &mut u64) -> PeerInfo {
        PeerInfo {
            id: NodeId(xorshift(state)),
            addr: NodeAddr(xorshift(state)),
            max_level: (xorshift(state) % 8) as u32,
            summary: CharacteristicsSummary {
                score_milli: (xorshift(state) % 1001) as u16,
                max_children: (xorshift(state) % 64) as u32,
            },
        }
    }

    fn arb_bytes(state: &mut u64, max_len: usize) -> Vec<u8> {
        let len = (xorshift(state) as usize) % (max_len + 1);
        (0..len).map(|_| (xorshift(state) & 0xFF) as u8).collect()
    }

    fn arb_update(state: &mut u64) -> RoutingUpdate {
        let peer = arb_peer(state);
        match xorshift(state) % 5 {
            0 => RoutingUpdate::Contact { peer },
            1 => RoutingUpdate::LevelMember {
                level: (xorshift(state) % 8) as u32,
                peer,
            },
            2 => RoutingUpdate::ParentOf { peer },
            3 => RoutingUpdate::ChildOf { peer },
            _ => RoutingUpdate::Superior { peer },
        }
    }

    fn arb_algorithm(state: &mut u64) -> RoutingAlgorithm {
        match xorshift(state) % 3 {
            0 => RoutingAlgorithm::Greedy,
            1 => RoutingAlgorithm::NonGreedy,
            _ => RoutingAlgorithm::NonGreedyFallback,
        }
    }

    fn arb_lookup_request(state: &mut u64) -> LookupRequest {
        let mut req = LookupRequest::new(
            RequestId(xorshift(state)),
            arb_peer(state),
            NodeId(xorshift(state)),
            arb_algorithm(state),
        );
        for _ in 0..(xorshift(state) % 6) {
            req.advance(NodeAddr(xorshift(state)));
        }
        for _ in 0..(xorshift(state) % 4) {
            req.fallbacks.push(arb_peer(state));
        }
        req
    }

    /// One random instance of the message variant with index `variant`.
    /// Keep `VARIANTS` in sync when adding messages:
    /// `variant_count_matches_the_enum` fails if a kind is never drawn.
    const VARIANTS: usize = 32;

    fn arb_message(variant: usize, state: &mut u64) -> TreePMessage {
        match variant {
            0 => TreePMessage::JoinRequest {
                joiner: arb_peer(state),
            },
            1 => TreePMessage::JoinAck {
                responder: arb_peer(state),
                contacts: (0..xorshift(state) % 5).map(|_| arb_peer(state)).collect(),
                parent: if xorshift(state).is_multiple_of(2) {
                    Some(arb_peer(state))
                } else {
                    None
                },
            },
            2 => TreePMessage::KeepAlive {
                sender: arb_peer(state),
                updates: (0..xorshift(state) % 6)
                    .map(|_| arb_update(state))
                    .collect(),
            },
            3 => TreePMessage::KeepAliveAck {
                sender: arb_peer(state),
                updates: (0..xorshift(state) % 6)
                    .map(|_| arb_update(state))
                    .collect(),
            },
            4 => TreePMessage::ChildReport {
                child: arb_peer(state),
                span: treep::KeyRange::new(NodeId(xorshift(state)), NodeId(xorshift(state))),
            },
            5 => TreePMessage::ChildReportAck {
                parent: arb_peer(state),
                superiors: (0..xorshift(state) % 5).map(|_| arb_peer(state)).collect(),
            },
            6 => TreePMessage::ElectionCall {
                level: (xorshift(state) % 8) as u32,
                caller: arb_peer(state),
            },
            7 => TreePMessage::ParentAnnounce {
                level: (xorshift(state) % 8) as u32,
                parent: arb_peer(state),
            },
            8 => TreePMessage::ParentAccept {
                child: arb_peer(state),
            },
            9 => TreePMessage::Demotion {
                node: arb_peer(state),
                from_level: (xorshift(state) % 8) as u32,
            },
            10 => TreePMessage::Lookup(arb_lookup_request(state)),
            11 => TreePMessage::LookupFound {
                request_id: RequestId(xorshift(state)),
                target: NodeId(xorshift(state)),
                result: arb_peer(state),
                hops: (xorshift(state) % 256) as u32,
                algorithm: arb_algorithm(state),
            },
            12 => TreePMessage::LookupNotFound {
                request_id: RequestId(xorshift(state)),
                target: NodeId(xorshift(state)),
                hops: (xorshift(state) % 256) as u32,
                algorithm: arb_algorithm(state),
            },
            13 => TreePMessage::DhtPut {
                request_id: RequestId(xorshift(state)),
                origin: arb_peer(state),
                key: NodeId(xorshift(state)),
                value: arb_bytes(state, 512),
                ttl: (xorshift(state) % 256) as u32,
            },
            14 => TreePMessage::DhtPutAck {
                request_id: RequestId(xorshift(state)),
                key: NodeId(xorshift(state)),
                stored_at: arb_peer(state),
            },
            15 => TreePMessage::DhtGet {
                request_id: RequestId(xorshift(state)),
                origin: arb_peer(state),
                key: NodeId(xorshift(state)),
                ttl: (xorshift(state) % 256) as u32,
            },
            16 => TreePMessage::DhtGetReply {
                request_id: RequestId(xorshift(state)),
                key: NodeId(xorshift(state)),
                value: if xorshift(state).is_multiple_of(2) {
                    Some(arb_bytes(state, 256))
                } else {
                    None
                },
                responder: arb_peer(state),
            },
            17 => TreePMessage::MulticastDown {
                origin: arb_peer(state),
                request_id: RequestId(xorshift(state)),
                range: treep::KeyRange::new(NodeId(xorshift(state)), NodeId(xorshift(state))),
                payload: match xorshift(state) % 3 {
                    0 => treep::MulticastPayload::Data(arb_bytes(state, 256)),
                    1 => treep::MulticastPayload::Aggregate(arb_query(state)),
                    _ => treep::MulticastPayload::Topic {
                        topic: NodeId(xorshift(state)),
                        data: arb_bytes(state, 256),
                    },
                },
                budget: (xorshift(state) % 256) as u32,
                hops: (xorshift(state) % 256) as u32,
                phase: match xorshift(state) % 4 {
                    0 => treep::MulticastPhase::Up,
                    1 => treep::MulticastPhase::BusLeft,
                    2 => treep::MulticastPhase::BusRight,
                    _ => treep::MulticastPhase::Down,
                },
                bus_level: (xorshift(state) % 8) as u32,
            },
            18 => TreePMessage::AggregateUp {
                origin: arb_peer(state),
                request_id: RequestId(xorshift(state)),
                query: arb_query(state),
                partial: arb_partial(state),
                truncated: xorshift(state).is_multiple_of(2),
                final_answer: xorshift(state).is_multiple_of(2),
            },
            19 => TreePMessage::ReplicaPut {
                sender: arb_peer(state),
                key: NodeId(xorshift(state)),
                value: arb_bytes(state, 256),
            },
            20 => TreePMessage::ReplicaSyncRequest {
                sender: arb_peer(state),
                range: treep::KeyRange::new(NodeId(xorshift(state)), NodeId(xorshift(state))),
                keys: (0..xorshift(state) % 8)
                    .map(|_| NodeId(xorshift(state)))
                    .collect(),
            },
            21 => TreePMessage::ReplicaSyncReply {
                sender: arb_peer(state),
                range: treep::KeyRange::new(NodeId(xorshift(state)), NodeId(xorshift(state))),
                entries: (0..xorshift(state) % 5)
                    .map(|_| ReplicaEntry {
                        key: NodeId(xorshift(state)),
                        value: arb_bytes(state, 64),
                    })
                    .collect(),
                want: (0..xorshift(state) % 8)
                    .map(|_| NodeId(xorshift(state)))
                    .collect(),
            },
            22 => TreePMessage::MulticastAck {
                origin: NodeAddr(xorshift(state)),
                request_id: RequestId(xorshift(state)),
            },
            23 => TreePMessage::AggregateAck {
                origin: NodeAddr(xorshift(state)),
                request_id: RequestId(xorshift(state)),
            },
            24 => TreePMessage::GetVersioned {
                request_id: RequestId(xorshift(state)),
                origin: arb_peer(state),
                key: NodeId(xorshift(state)),
                ttl: (xorshift(state) % 32) as u32,
                min_stamp: if xorshift(state).is_multiple_of(2) {
                    Some(arb_stamp(state))
                } else {
                    None
                },
                path: (0..xorshift(state) % 5)
                    .map(|_| NodeAddr(xorshift(state)))
                    .collect(),
            },
            25 => TreePMessage::GetVersionedReply {
                request_id: RequestId(xorshift(state)),
                origin: NodeAddr(xorshift(state)),
                key: NodeId(xorshift(state)),
                value: if xorshift(state).is_multiple_of(2) {
                    Some(StampedValue {
                        stamp: arb_stamp(state),
                        value: arb_bytes(state, 64),
                    })
                } else {
                    None
                },
                source: match xorshift(state) % 3 {
                    0 => ReadSource::Responsible,
                    1 => ReadSource::Replica,
                    _ => ReadSource::Cache,
                },
                hops: (xorshift(state) % 256) as u32,
                responder: arb_peer(state),
                path: (0..xorshift(state) % 5)
                    .map(|_| NodeAddr(xorshift(state)))
                    .collect(),
            },
            26 => TreePMessage::PutVersioned {
                request_id: RequestId(xorshift(state)),
                origin: arb_peer(state),
                key: NodeId(xorshift(state)),
                stamp: arb_stamp(state),
                value: arb_bytes(state, 64),
                ttl: (xorshift(state) % 32) as u32,
            },
            27 => TreePMessage::PutVersionedAck {
                request_id: RequestId(xorshift(state)),
                key: NodeId(xorshift(state)),
                stamp: arb_stamp(state),
                stored_at: arb_peer(state),
            },
            28 => TreePMessage::ReadRepair {
                sender: arb_peer(state),
                key: NodeId(xorshift(state)),
                stamp: arb_stamp(state),
                value: arb_bytes(state, 64),
            },
            29 => TreePMessage::ReadVerify {
                server: arb_peer(state),
                key: NodeId(xorshift(state)),
                served_stamp: arb_stamp(state),
                ttl: (xorshift(state) % 32) as u32,
            },
            30 => TreePMessage::FilterReport {
                child: arb_peer(state),
                topics: (0..xorshift(state) % 8)
                    .map(|_| NodeId(xorshift(state)))
                    .collect(),
                overflow: xorshift(state).is_multiple_of(2),
            },
            31 => TreePMessage::ReplicaDigest {
                sender: arb_peer(state),
                range: treep::KeyRange::new(NodeId(xorshift(state)), NodeId(xorshift(state))),
                xor: xorshift(state),
                count: xorshift(state),
            },
            other => panic!("variant index {other} not mapped; update arb_message"),
        }
    }

    fn arb_stamp(state: &mut u64) -> VersionStamp {
        VersionStamp {
            version: xorshift(state),
            origin: NodeId(xorshift(state)),
        }
    }

    fn arb_query(state: &mut u64) -> treep::AggregateQuery {
        match xorshift(state) % 4 {
            0 => treep::AggregateQuery::CountNodes,
            1 => treep::AggregateQuery::MaxCapability,
            2 => treep::AggregateQuery::DhtKeyDigest,
            _ => treep::AggregateQuery::KeysInRange,
        }
    }

    fn arb_partial(state: &mut u64) -> treep::AggregatePartial {
        match xorshift(state) % 4 {
            0 => treep::AggregatePartial::Count(xorshift(state)),
            1 => treep::AggregatePartial::MaxCapability((xorshift(state) % 1001) as u16),
            2 => treep::AggregatePartial::Digest {
                xor: xorshift(state),
                count: xorshift(state),
            },
            _ => treep::AggregatePartial::Keys(
                (0..xorshift(state) % 8)
                    .map(|_| NodeId(xorshift(state)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn every_variant_round_trips_with_random_fields() {
        let mut state = 0x5eed_c0dec;
        for round in 0..200 {
            for variant in 0..VARIANTS {
                let msg = arb_message(variant, &mut state);
                let encoded = encode_message(&msg);
                let decoded = decode_message(&encoded)
                    .unwrap_or_else(|e| panic!("round {round} variant {variant}: {e}"));
                assert_eq!(decoded, msg, "round {round} variant {variant}");
            }
        }
    }

    /// `arb_message` draws every kind exactly once. (That the codec itself
    /// covers every variant needs no test: the table's `put` match has no
    /// wildcard arm.)
    #[test]
    fn variant_count_matches_the_enum() {
        let mut state = 1;
        let drawn: BTreeSet<MessageKind> = (0..VARIANTS)
            .map(|v| arb_message(v, &mut state).kind())
            .collect();
        assert_eq!(drawn, BTreeSet::from(MessageKind::ALL));
        assert_eq!(VARIANTS, MessageKind::COUNT);
    }

    #[test]
    fn random_bytes_never_panic() {
        let mut state = 0x5eed_fffe;
        for _ in 0..500 {
            let bytes = arb_bytes(&mut state, 256);
            let _ = decode_message(&bytes);
        }
    }

    #[test]
    fn truncated_random_messages_are_rejected_not_panicking() {
        let mut state = 0x5eed_aaaa;
        for variant in 0..VARIANTS {
            let msg = arb_message(variant, &mut state);
            let encoded = encode_message(&msg);
            for cut in 0..encoded.len() {
                assert!(decode_message(&encoded[..cut]).is_err());
            }
        }
    }
}
