//! Versioned, std-only binary snapshots of engine state.
//!
//! A [`Snapshot`] captures everything the driver needs to continue a run
//! exactly where it stopped: the current round, every node's next wake
//! round, the stay lane, the pending wake-wheel events, per-node program
//! state (through the [`Persist`] trait), the outputs produced so far,
//! [`crate::Metrics`], tracer state, and — for fault-injected
//! runs — the plan and the buffer of delayed in-flight messages.
//!
//! The load-bearing invariant, asserted by the integration tests at every
//! round of seeded runs: *run to round r, snapshot, restore, run to the
//! end* is **bit-for-bit identical** to an uninterrupted run — outputs,
//! `Metrics`, and trace — at any worker count. Snapshots are taken at
//! round boundaries, where no round body holds any state of its own, so a
//! snapshot written at one worker count can be resumed at another.
//!
//! # Format
//!
//! Little-endian, length-prefixed, no external dependencies:
//!
//! ```text
//! magic    8 bytes  b"AWAKECKP"
//! version  u32      SNAPSHOT_VERSION (currently 4; v2 added the
//!                   awake_events / rounds_skipped metrics counters, v3
//!                   the fault-plan window fields, the recovery counters,
//!                   and the per-node recovering bitset, v4 dropped the
//!                   per-span awake table)
//! round    u64      last processed round
//! graph    u64      fingerprint of (n, idents, adjacency)
//! config   max_rounds + trace mode
//! state    next_wake, stay lane, wheel events, outputs,
//!          per-node program blobs, metrics, tracer, fault state
//! ```
//!
//! The metrics block holds the awake column, `rounds`, then every
//! [`crate::Counters`] entry in table order.
//!
//! Decoding validates the magic, the version, the graph fingerprint, and
//! every length against the remaining input; a snapshot must also be
//! consumed *exactly* ([`CheckpointError::TrailingBytes`] otherwise), so
//! truncated or corrupt files fail with a typed error instead of producing
//! a silently wrong resume.
//!
//! # The [`Persist`] contract
//!
//! `save` writes only the program's *dynamic* state — anything that
//! changes after construction. `restore` is applied to a **freshly
//! constructed** program (the caller rebuilds the initial programs from
//! the same inputs, e.g. the same scenario seed) and must overwrite every
//! dynamic field it saved. Crash-restart uses the same pair mid-round, so
//! a `restore` after `save` must reproduce the saved state exactly even on
//! a program that has advanced past it.
//!
//! # Declaring a layout
//!
//! A layout is written once, as a field list: [`codec!`](crate::codec!)
//! for message, output and record types (structs and tagged enums), and
//! [`persist!`](crate::persist!) for a program's dynamic fields. Each
//! expands to an encode and a decode that walk the same list, so the two
//! orders cannot drift apart. Hand-write an impl only when `restore` must
//! validate the image, rebuild state derived from it, or delegate to an
//! inner [`Persist`].

use crate::engine::{Boundary, Checkpoint, FaultCtx, NEVER};
use crate::faults::{DelayedMsg, FaultPlan, FaultState};
use crate::metrics::Metrics;
use crate::program::Program;
use crate::trace::{TraceEvent, Tracer};
use crate::wheel::WakeWheel;
use crate::{Config, Round, SimError, TraceMode};
use awake_graphs::{Graph, NodeId};
use std::fmt;
use std::sync::Arc;

/// Magic bytes every snapshot starts with.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"AWAKECKP";
/// Current snapshot format version. Version 2 appended the
/// `awake_events` and `rounds_skipped` counters to the metrics block;
/// version 3 added the fault-plan window fields
/// (`burst_start`/`burst_len`/`quiet_after`), the
/// `recovery_rounds`/`recovery_awake` counters, and the per-node
/// `recovering` bitset of the fault state; version 4 dropped the per-span
/// awake table that followed the counters. Older images are rejected with
/// [`CheckpointError::UnsupportedVersion`] rather than silently restored
/// with zeroed fields.
pub const SNAPSHOT_VERSION: u32 = 4;

/// Why a snapshot could not be decoded or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The input ended before the expected data.
    Truncated,
    /// The input does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion(
        /// The version found in the header.
        u32,
    ),
    /// A decoded value is structurally invalid.
    Corrupt(
        /// What was invalid.
        &'static str,
    ),
    /// The snapshot was taken on a different graph (node count, idents, or
    /// adjacency differ).
    GraphMismatch,
    /// Decoding succeeded but bytes were left over — the snapshot and the
    /// program types disagree.
    TrailingBytes,
    /// The snapshot was taken under a different fault plan than the one
    /// the resuming run names (an inactive plan counts as none).
    FaultPlanMismatch,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "snapshot truncated"),
            CheckpointError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (supported: {SNAPSHOT_VERSION})"
                )
            }
            CheckpointError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            CheckpointError::GraphMismatch => {
                write!(f, "snapshot was taken on a different graph")
            }
            CheckpointError::TrailingBytes => {
                write!(f, "snapshot has trailing bytes after decoding")
            }
            CheckpointError::FaultPlanMismatch => {
                write!(f, "snapshot was taken under a different fault plan")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Why a resume failed: either the snapshot itself, or the continued
/// simulation.
#[derive(Debug)]
pub enum ResumeError {
    /// The snapshot could not be decoded or applied.
    Checkpoint(CheckpointError),
    /// The continued run failed.
    Sim(SimError),
}

impl From<CheckpointError> for ResumeError {
    fn from(e: CheckpointError) -> Self {
        ResumeError::Checkpoint(e)
    }
}

impl From<SimError> for ResumeError {
    fn from(e: SimError) -> Self {
        ResumeError::Sim(e)
    }
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Checkpoint(e) => write!(f, "{e}"),
            ResumeError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// An append-only byte sink for [`Codec::encode`] and [`Persist::save`].
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Append raw bytes.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Encode one value.
    #[inline]
    pub fn put<T: Codec>(&mut self, v: &T) {
        v.encode(self);
    }

    /// The accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// A bounds-checked cursor over snapshot bytes for [`Codec::decode`] and
/// [`Persist::restore`].
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Consume exactly `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(CheckpointError::Truncated)?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Decode one value.
    #[inline]
    pub fn get<T: Codec>(&mut self) -> Result<T, CheckpointError> {
        T::decode(self)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

/// Binary serialization of one value, little-endian and self-delimiting.
///
/// Implemented here for the std types snapshots are built from. A struct
/// or enum of such values declares its layout once with
/// [`codec!`](crate::codec!); write an impl by hand only when decoding
/// must validate or the layout is not a plain field list.
pub trait Codec: Sized {
    /// Append this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);
    /// Decode one value from `r`, consuming exactly what `encode` wrote.
    ///
    /// # Errors
    /// [`CheckpointError::Truncated`] if the input ends early, or
    /// [`CheckpointError::Corrupt`] on structurally invalid data.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError>;
}

macro_rules! int_codec {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            #[inline]
            fn encode(&self, w: &mut Writer) {
                w.bytes(&self.to_le_bytes());
            }
            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
                let b = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("exact take")))
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64, i64);

impl Codec for usize {
    fn encode(&self, w: &mut Writer) {
        (*self as u64).encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        usize::try_from(u64::decode(r)?).map_err(|_| CheckpointError::Corrupt("usize overflow"))
    }
}

impl Codec for bool {
    fn encode(&self, w: &mut Writer) {
        w.bytes(&[*self as u8]);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Corrupt("bool")),
        }
    }
}

impl Codec for () {
    fn encode(&self, _w: &mut Writer) {}
    fn decode(_r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(())
    }
}

impl Codec for String {
    fn encode(&self, w: &mut Writer) {
        self.len().encode(w);
        w.bytes(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let len = usize::decode(r)?;
        let b = r.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| CheckpointError::Corrupt("utf-8 string"))
    }
}

impl Codec for NodeId {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(NodeId(u32::decode(r)?))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.bytes(&[0]),
            Some(v) => {
                w.bytes(&[1]);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match r.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(CheckpointError::Corrupt("option tag")),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        self.len().encode(w);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let len = usize::decode(r)?;
        // Every element consumes at least one byte for the types snapshots
        // store, so a length beyond the remaining input is corruption —
        // reject it before reserving memory for it.
        if len > r.remaining() {
            return Err(CheckpointError::Truncated);
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<K: Codec + Ord, V: Codec> Codec for std::collections::BTreeMap<K, V> {
    fn encode(&self, w: &mut Writer) {
        self.len().encode(w);
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let len = usize::decode(r)?;
        if len > r.remaining() {
            return Err(CheckpointError::Truncated);
        }
        let mut out = std::collections::BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Codec + Ord> Codec for std::collections::BTreeSet<T> {
    fn encode(&self, w: &mut Writer) {
        self.len().encode(w);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let len = usize::decode(r)?;
        if len > r.remaining() {
            return Err(CheckpointError::Truncated);
        }
        let mut out = std::collections::BTreeSet::new();
        for _ in 0..len {
            out.insert(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for std::collections::VecDeque<T> {
    fn encode(&self, w: &mut Writer) {
        self.len().encode(w);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let len = usize::decode(r)?;
        if len > r.remaining() {
            return Err(CheckpointError::Truncated);
        }
        let mut out = std::collections::VecDeque::with_capacity(len);
        for _ in 0..len {
            out.push_back(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Arc<T> {
    fn encode(&self, w: &mut Writer) {
        T::encode(self, w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(Arc::new(T::decode(r)?))
    }
}

macro_rules! tuple_codec {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Codec),+> Codec for ($($name,)+) {
            fn encode(&self, w: &mut Writer) {
                $(self.$idx.encode(w);)+
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

tuple_codec!(A: 0, B: 1);
tuple_codec!(A: 0, B: 1, C: 2);
tuple_codec!(A: 0, B: 1, C: 2, D: 3);
tuple_codec!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// Implement [`Codec`] for a struct or an enum from one list of its
/// fields, so the encode and decode orders cannot drift apart.
///
/// A struct lists its fields; they are encoded in order. An enum lists
/// `tag => Variant` arms, each a unit, tuple or struct variant naming its
/// fields; the tag is one byte, and an unlisted tag decodes to
/// [`CheckpointError::Corrupt`]. Each type parameter takes one bound.
///
/// ```
/// use awake_sleeping::{codec, Codec, Reader, Writer};
///
/// #[derive(Debug, PartialEq)]
/// struct Rec<P> { id: u64, payload: P }
/// codec!(struct Rec<P: Codec> { id, payload });
///
/// #[derive(Debug, PartialEq)]
/// enum Msg { Ping, Hello(u64, bool), Bag { label: u64, items: Vec<u32> } }
/// codec!(enum Msg { 0 => Ping, 1 => Hello(id, up), 2 => Bag { label, items } });
///
/// let mut w = Writer::new();
/// w.put(&Rec { id: 7, payload: Msg::Hello(3, true) });
/// let bytes = w.into_bytes();
/// let back: Rec<Msg> = Reader::new(&bytes).get().unwrap();
/// assert_eq!(back, Rec { id: 7, payload: Msg::Hello(3, true) });
/// assert!(Reader::new(&[9]).get::<Msg>().is_err());
/// ```
#[macro_export]
macro_rules! codec {
    (
        struct $name:ident $(<$($g:ident $(: $b:path)?),+>)?
        { $($field:ident),* $(,)? }
    ) => {
        impl $(<$($g $(: $b)?),+>)? $crate::Codec for $name $(<$($g),+>)? {
            fn encode(&self, w: &mut $crate::Writer) {
                $(w.put(&self.$field);)*
            }
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::CheckpointError> {
                Ok(Self { $($field: r.get()?),* })
            }
        }
    };
    (
        enum $name:ident $(<$($g:ident $(: $b:path)?),+>)?
        {
            $($tag:literal => $var:ident
                $(($($tf:ident),+))?
                $({ $($sf:ident),+ })?),+
            $(,)?
        }
    ) => {
        impl $(<$($g $(: $b)?),+>)? $crate::Codec for $name $(<$($g),+>)? {
            fn encode(&self, w: &mut $crate::Writer) {
                match self {
                    $(Self::$var $(($($tf),+))? $({ $($sf),+ })? => {
                        w.put::<u8>(&$tag);
                        $($(w.put($tf);)+)?
                        $($(w.put($sf);)+)?
                    })+
                }
            }
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::CheckpointError> {
                match r.get::<u8>()? {
                    $($tag => {
                        $($(let $tf = r.get()?;)+)?
                        $($(let $sf = r.get()?;)+)?
                        Ok(Self::$var $(($($tf),+))? $({ $($sf),+ })?)
                    })+
                    _ => Err($crate::CheckpointError::Corrupt(concat!(stringify!($name), " tag"))),
                }
            }
        }
    };
}

/// Implement [`Persist`] from one list of a program's dynamic fields:
/// `save` encodes them in order and `restore` decodes them back in
/// place. A field may be a nested path such as `inner.cursor`. Each type
/// parameter takes one bound, and an optional `where` clause adds more;
/// doc comments before the type name document the impl.
///
/// Write the impl by hand only when `restore` must validate the image,
/// rebuild derived state, or delegate to an inner [`Persist`].
///
/// ```
/// use awake_sleeping::{persist, Persist, Reader, Writer};
///
/// struct Schedule { wakes: Vec<u64>, cursor: usize }
/// struct Node { ident: u64, best: u64, inner: Schedule }
/// // `ident` and `wakes` are construction inputs: not persisted
/// persist!(Node { best, inner.cursor });
///
/// let fresh = || Node { ident: 4, best: 4, inner: Schedule { wakes: vec![2, 5], cursor: 0 } };
/// let mut node = fresh();
/// (node.best, node.inner.cursor) = (9, 1);
/// let mut w = Writer::new();
/// node.save(&mut w);
/// let bytes = w.into_bytes();
/// let mut restored = fresh();
/// restored.restore(&mut Reader::new(&bytes)).unwrap();
/// assert_eq!((restored.best, restored.inner.cursor), (9, 1));
/// ```
#[macro_export]
macro_rules! persist {
    (
        $(#[$attr:meta])*
        $name:ident $(<$($g:ident $(: $b:path)?),+>)?
        $(where $($wt:ty: $wb:path),+)?
        { $($head:ident $(.$tail:ident)*),* $(,)? }
    ) => {
        $(#[$attr])*
        impl $(<$($g $(: $b)?),+>)? $crate::Persist for $name $(<$($g),+>)?
        $(where $($wt: $wb),+)?
        {
            fn save(&self, w: &mut $crate::Writer) {
                $(w.put(&self.$head $(.$tail)*);)*
                let _ = w; // unused when the list is empty
            }
            fn restore(&mut self, r: &mut $crate::Reader<'_>) -> Result<(), $crate::CheckpointError> {
                $(self.$head $(.$tail)* = r.get()?;)*
                let _ = r;
                Ok(())
            }
        }
    };
}

/// Per-node program state capture for snapshots and crash-restart.
///
/// `save` writes the program's *dynamic* state (everything that changes
/// after construction); `restore` overwrites that state on a freshly
/// constructed program. The pair must round-trip exactly: `restore` after
/// `save` reproduces the saved state bit for bit, even when applied to a
/// program that has since advanced (crash-restart applies it to the
/// post-send program of the crashed round).
pub trait Persist {
    /// Write this program's dynamic state.
    fn save(&self, w: &mut Writer);
    /// Overwrite this program's dynamic state from `r`.
    ///
    /// # Errors
    /// Any [`CheckpointError`] from decoding; on error the program state is
    /// unspecified and the caller discards it.
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError>;
}

/// The save/restore entry points of a concrete `P: Persist`, captured as
/// plain function pointers so the round bodies — which deliberately have
/// no `Persist` bound — can crash-restart nodes. Built by the bounded
/// public wrappers via [`CrashIo::of`].
pub(crate) struct CrashIo<P> {
    pub(crate) save: fn(&P, &mut Writer),
    pub(crate) restore: fn(&mut P, &mut Reader<'_>) -> Result<(), CheckpointError>,
}

impl<P> Clone for CrashIo<P> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<P> Copy for CrashIo<P> {}

impl<P: Persist> CrashIo<P> {
    pub(crate) fn of() -> Self {
        CrashIo {
            save: P::save,
            restore: P::restore,
        }
    }
}

/// A self-contained, versioned snapshot of a paused run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    round: Round,
    bytes: Vec<u8>,
}

impl Snapshot {
    /// The last round the snapshotted run processed: resuming continues
    /// strictly after it.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The serialized form (write this to disk).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Reconstruct a snapshot from its serialized form, validating the
    /// header (magic + version) eagerly.
    ///
    /// # Errors
    /// [`CheckpointError::BadMagic`], [`CheckpointError::UnsupportedVersion`],
    /// or [`CheckpointError::Truncated`] if even the header is incomplete.
    /// The body is validated later, on resume.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(&bytes);
        if r.take(8)? != SNAPSHOT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u32::decode(&mut r)?;
        if version != SNAPSHOT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let round = Round::decode(&mut r)?;
        Ok(Snapshot { round, bytes })
    }
}

/// Whether a run paused for a snapshot actually reached the pause point,
/// or completed first.
#[derive(Debug)]
pub enum Paused<O> {
    /// The run finished before the requested pause round.
    Done(crate::Run<O>),
    /// The run paused; resume it with the snapshot.
    Snapshot(Snapshot),
}

impl<O> Paused<O> {
    /// The completed run of a spec without a pause bound.
    ///
    /// # Panics
    /// Panics on [`Paused::Snapshot`], which only a
    /// [`Checkpoint::PauseAfter`] spec returns.
    pub fn finished(self) -> crate::Run<O> {
        match self {
            Paused::Done(run) => run,
            Paused::Snapshot(_) => panic!("a run without a pause bound paused"),
        }
    }

    /// The snapshot of a spec with a pause bound.
    ///
    /// # Panics
    /// Panics on [`Paused::Done`]: the run finished before the bound.
    pub fn into_snapshot(self) -> Snapshot {
        match self {
            Paused::Snapshot(s) => s,
            Paused::Done(_) => panic!("the run finished before its pause bound"),
        }
    }
}

/// The snapshot encoder of a concrete `P`, as a function pointer: the
/// driver carries no [`Codec`] bounds, only
/// [`Engine::run_spec`](crate::Engine::run_spec) does, where
/// `encode_snapshot::<P>` is instantiated.
pub(crate) type Encode<P> = fn(&Graph, &Boundary<P>, &[Option<P>]) -> Snapshot;

/// The one checkpoint controller the driver consults at every round
/// boundary: whether to pause before the next round, and whether a
/// periodic snapshot is due after the last one.
pub(crate) struct Controller<'a, P: Program> {
    plan: Checkpoint<'a>,
    /// The round of the last emitted snapshot (initially the start
    /// boundary's).
    last_emit: Round,
    encode: Encode<P>,
}

impl<'a, P: Program> Controller<'a, P> {
    pub(crate) fn new(plan: Checkpoint<'a>, start: Round, encode: Encode<P>) -> Self {
        Controller {
            plan,
            last_emit: start,
            encode,
        }
    }

    /// At the boundary after round `prev_round`, with round `next`
    /// pending: hand a due periodic snapshot to the sink (at least `every`
    /// rounds since the last one), or return the snapshot to pause with
    /// (`next` is past the pause bound). `snapshot` encodes the boundary
    /// with the encoder it is given. No snapshot is taken once nothing is
    /// pending — the final state is the returned run.
    pub(crate) fn at_boundary(
        &mut self,
        prev_round: Round,
        next: Round,
        snapshot: impl FnOnce(Encode<P>) -> Snapshot,
    ) -> Option<Snapshot> {
        match self.plan {
            Checkpoint::PauseAfter(bound) if next > bound => Some(snapshot(self.encode)),
            Checkpoint::Every(every, sink)
                if prev_round >= self.last_emit.saturating_add(every.get()) =>
            {
                self.last_emit = prev_round;
                sink(&snapshot(self.encode));
                None
            }
            _ => None,
        }
    }
}

/// FNV-1a over the graph's shape: node count, idents, and adjacency. A
/// resume on a graph with a different fingerprint is rejected.
fn graph_fingerprint(g: &Graph) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn fnv(h: u64, x: u64) -> u64 {
        (h ^ x).wrapping_mul(PRIME)
    }
    let mut h = fnv(OFFSET, g.n() as u64);
    for v in 0..g.n() as u32 {
        h = fnv(h, g.ident(NodeId(v)));
        let nb = g.neighbors(NodeId(v));
        h = fnv(h, nb.len() as u64);
        for &w in nb {
            h = fnv(h, w.0 as u64 + 1);
        }
    }
    h
}

codec!(enum TraceMode { 0 => Off, 1 => Capped(cap) });

codec!(enum TraceEvent {
    0 => Awake { round, node },
    1 => Delivered { round, from, to },
    2 => Lost { round, from, to },
    3 => Sleep { round, node, until },
    4 => Halt { round, node },
    5 => FaultDrop { round, from, to },
    6 => FaultDelay { round, from, to, until },
    7 => Crash { round, node },
});

codec!(struct FaultPlan {
    seed,
    drop_ppm,
    dup_ppm,
    delay_ppm,
    crash_ppm,
    delay_rounds,
    burst_start,
    burst_len,
    quiet_after,
});

codec!(struct DelayedMsg<M: Codec> { due, from, to, msg });

/// Serialize the run paused at boundary `st`, with every program in its
/// slot. The boundary is the same at any worker count, so snapshots of
/// the same run at the same round are byte-identical (asserted in tests).
pub(crate) fn encode_snapshot<P>(
    graph: &Graph,
    st: &Boundary<P>,
    programs: &[Option<P>],
) -> Snapshot
where
    P: Program + Persist,
    P::Msg: Codec,
    P::Output: Codec,
{
    let n = graph.n();
    let config = st.config;
    let mut w = Writer::new();
    w.bytes(&SNAPSHOT_MAGIC);
    SNAPSHOT_VERSION.encode(&mut w);
    st.prev_round.encode(&mut w);
    graph_fingerprint(graph).encode(&mut w);
    config.max_rounds.encode(&mut w);
    config.trace.encode(&mut w);
    n.encode(&mut w);
    st.next_wake.encode(&mut w);
    st.stay.encode(&mut w);
    st.wheel.pending_events().encode(&mut w);
    st.outputs.len().encode(&mut w);
    for o in &st.outputs {
        o.encode(&mut w);
    }
    for p in programs {
        p.as_ref()
            .expect("program parked between rounds")
            .save(&mut w);
    }
    // metrics
    let m = &st.metrics;
    m.awake.encode(&mut w);
    m.rounds.encode(&mut w);
    for c in m.counters.values() {
        c.encode(&mut w);
    }
    // tracer
    st.tracer.events.encode(&mut w);
    st.tracer.dropped.encode(&mut w);
    // faults
    match st.faults.as_ref().map(|f| &f.state) {
        None => w.bytes(&[0]),
        Some(f) => {
            w.bytes(&[1]);
            f.plan.encode(&mut w);
            f.delayed.encode(&mut w);
            f.recovering.encode(&mut w);
        }
    }
    Snapshot {
        round: st.prev_round,
        bytes: w.into_bytes(),
    }
}

/// Decode a snapshot against `graph` into the round boundary it captured,
/// restoring per-node program state into `programs` (freshly constructed
/// initial programs, one per node).
pub(crate) fn decode_snapshot<P>(
    graph: &Graph,
    snapshot: &Snapshot,
    programs: &mut [P],
) -> Result<Boundary<P>, CheckpointError>
where
    P: Program + Persist,
    P::Msg: Codec,
    P::Output: Codec,
{
    let n = graph.n();
    debug_assert_eq!(programs.len(), n, "callers check the program count");
    let mut r = Reader::new(&snapshot.bytes);
    if r.take(8)? != SNAPSHOT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u32::decode(&mut r)?;
    if version != SNAPSHOT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let prev_round = Round::decode(&mut r)?;
    if u64::decode(&mut r)? != graph_fingerprint(graph) {
        return Err(CheckpointError::GraphMismatch);
    }
    let max_rounds = Round::decode(&mut r)?;
    let trace = TraceMode::decode(&mut r)?;
    let config = Config { max_rounds, trace };
    if usize::decode(&mut r)? != n {
        return Err(CheckpointError::GraphMismatch);
    }
    let next_wake: Vec<Round> = r.get()?;
    if next_wake.len() != n {
        return Err(CheckpointError::Corrupt("next_wake length"));
    }
    let stay: Vec<u32> = r.get()?;
    if stay.windows(2).any(|w| w[0] >= w[1]) || stay.iter().any(|&v| v as usize >= n) {
        return Err(CheckpointError::Corrupt("stay lane"));
    }
    let wheel_events: Vec<(Round, u32)> = r.get()?;
    if wheel_events
        .iter()
        .any(|&(round, v)| round <= prev_round || v as usize >= n)
    {
        return Err(CheckpointError::Corrupt("wheel event"));
    }
    let outputs_len = usize::decode(&mut r)?;
    if outputs_len != n {
        return Err(CheckpointError::Corrupt("outputs length"));
    }
    let mut outputs: Vec<Option<P::Output>> = Vec::with_capacity(n);
    for _ in 0..n {
        outputs.push(r.get()?);
    }
    for p in programs.iter_mut() {
        p.restore(&mut r)?;
    }
    // metrics
    let mut metrics = Metrics::new(n);
    metrics.awake = r.get()?;
    if metrics.awake.len() != n {
        return Err(CheckpointError::Corrupt("awake length"));
    }
    metrics.rounds = r.get()?;
    for c in metrics.counters.values_mut() {
        *c = r.get()?;
    }
    // tracer
    let mut tracer = Tracer::new(trace);
    tracer.events = r.get()?;
    tracer.dropped = r.get()?;
    // faults
    let faults = match r.take(1)?[0] {
        0 => None,
        1 => {
            let plan: FaultPlan = r.get()?;
            let delayed: Vec<DelayedMsg<P::Msg>> = r.get()?;
            let recovering: Vec<bool> = r.get()?;
            if recovering.len() != n {
                return Err(CheckpointError::Corrupt("recovering length"));
            }
            let mut f = FaultState::new(plan);
            f.delayed = delayed;
            f.recovering = recovering;
            Some(FaultCtx::of(f))
        }
        _ => return Err(CheckpointError::Corrupt("fault state tag")),
    };
    if r.remaining() != 0 {
        return Err(CheckpointError::TrailingBytes);
    }
    // Cross-validate halted/asleep bookkeeping so a corrupt snapshot can't
    // put the scheduler into an impossible state.
    for (v, &wake) in next_wake.iter().enumerate() {
        if wake == NEVER && outputs[v].is_none() {
            return Err(CheckpointError::Corrupt("halted node without output"));
        }
    }
    // The rebuilt wheel holds exactly the pending events (all strictly
    // after the restored round — validated above). Bucket layout is
    // relative to the wheel's running position, so it is not
    // byte-identical to the original — but pop order and peek results
    // are, which is all the driver observes.
    let mut wheel = WakeWheel::new();
    for (round, v) in wheel_events {
        wheel.schedule(round, v);
    }
    Ok(Boundary {
        config,
        prev_round,
        next_wake,
        stay,
        wheel,
        outputs,
        metrics,
        tracer,
        faults,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = Writer::new();
        v.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(T::decode(&mut r).unwrap(), v);
        assert_eq!(r.remaining(), 0, "decode must consume exactly");
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(u8::MAX);
        roundtrip(0xabcdu16);
        roundtrip(0xdead_beefu32);
        roundtrip(u64::MAX / 3);
        roundtrip(-42i64);
        roundtrip(usize::MAX / 2);
        roundtrip(true);
        roundtrip(false);
        roundtrip(());
        roundtrip(String::from("héllo"));
        roundtrip(NodeId(7));
        roundtrip(Some(9u64));
        roundtrip(Option::<u64>::None);
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u32>::new());
        roundtrip((1u8, 2u64));
        roundtrip((1u8, 2u64, NodeId(3)));
        roundtrip((1u8, 2u64, NodeId(3), true));
        roundtrip((1u8, 2u64, NodeId(3), true, String::from("x")));
        roundtrip(Arc::new(vec![(1u64, 2u16)]));
    }

    #[test]
    fn truncated_input_is_a_typed_error() {
        let mut w = Writer::new();
        vec![1u64, 2, 3].encode(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert_eq!(
                Vec::<u64>::decode(&mut r).unwrap_err(),
                CheckpointError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn hostile_lengths_are_rejected_before_allocation() {
        let mut w = Writer::new();
        (u64::MAX / 2).encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(
            Vec::<u64>::decode(&mut r).unwrap_err(),
            CheckpointError::Truncated
        );
    }

    #[test]
    fn corrupt_tags_are_typed_errors() {
        let mut r = Reader::new(&[9]);
        assert!(matches!(
            bool::decode(&mut r).unwrap_err(),
            CheckpointError::Corrupt(_)
        ));
        let mut r = Reader::new(&[7, 0]);
        assert!(matches!(
            Option::<u8>::decode(&mut r).unwrap_err(),
            CheckpointError::Corrupt(_)
        ));
        // one past the last tag of each enum `codec!` implements here
        let mut r = Reader::new(&[8, 0]);
        assert_eq!(
            TraceEvent::decode(&mut r).unwrap_err(),
            CheckpointError::Corrupt("TraceEvent tag")
        );
        let mut r = Reader::new(&[2, 0]);
        assert_eq!(
            TraceMode::decode(&mut r).unwrap_err(),
            CheckpointError::Corrupt("TraceMode tag")
        );
    }

    #[test]
    fn snapshot_header_is_validated_eagerly() {
        assert_eq!(
            Snapshot::from_bytes(b"NOTA".to_vec()).unwrap_err(),
            CheckpointError::Truncated,
            "shorter than the magic itself"
        );
        assert_eq!(
            Snapshot::from_bytes(b"NOTASNAP".to_vec()).unwrap_err(),
            CheckpointError::BadMagic,
            "full-length wrong magic loses to the magic check, not length"
        );
        // An unknown version, and the previous one (v3 still carried the
        // span table), are both refused.
        for version in [99u32, 3] {
            let mut bad = SNAPSHOT_MAGIC.to_vec();
            bad.extend_from_slice(&version.to_le_bytes());
            bad.extend_from_slice(&5u64.to_le_bytes());
            assert_eq!(
                Snapshot::from_bytes(bad).unwrap_err(),
                CheckpointError::UnsupportedVersion(version)
            );
        }
        let mut wrong_magic = b"XXXXXXXX".to_vec();
        wrong_magic.extend_from_slice(&[0; 12]);
        assert_eq!(
            Snapshot::from_bytes(wrong_magic).unwrap_err(),
            CheckpointError::BadMagic
        );
        let mut good = SNAPSHOT_MAGIC.to_vec();
        good.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        good.extend_from_slice(&17u64.to_le_bytes());
        assert_eq!(Snapshot::from_bytes(good).unwrap().round(), 17);
    }

    #[test]
    fn trace_event_roundtrips() {
        for ev in [
            TraceEvent::Awake {
                round: 1,
                node: NodeId(2),
            },
            TraceEvent::Delivered {
                round: 3,
                from: NodeId(0),
                to: NodeId(1),
            },
            TraceEvent::Lost {
                round: 4,
                from: NodeId(1),
                to: NodeId(0),
            },
            TraceEvent::Sleep {
                round: 5,
                node: NodeId(3),
                until: 9,
            },
            TraceEvent::Halt {
                round: 6,
                node: NodeId(4),
            },
            TraceEvent::FaultDrop {
                round: 7,
                from: NodeId(2),
                to: NodeId(3),
            },
            TraceEvent::FaultDelay {
                round: 8,
                from: NodeId(3),
                to: NodeId(4),
                until: 11,
            },
            TraceEvent::Crash {
                round: 9,
                node: NodeId(5),
            },
        ] {
            roundtrip(ev);
        }
        roundtrip(TraceMode::Off);
        roundtrip(TraceMode::Capped(1 << 20));
    }

    #[test]
    fn fault_plan_and_delayed_roundtrip() {
        let mut plan = FaultPlan::new(77);
        plan.drop_ppm = 1;
        plan.dup_ppm = 2;
        plan.delay_ppm = 3;
        plan.crash_ppm = 4;
        plan.delay_rounds = 5;
        plan.burst_start = 6;
        plan.burst_len = 7;
        plan.quiet_after = 8;
        roundtrip(plan);
        roundtrip(DelayedMsg {
            due: 12,
            from: NodeId(1),
            to: NodeId(2),
            msg: 99u64,
        });
    }

    /// The counters' order in the snapshot's metrics block is part of the
    /// format: reordering them must bump [`SNAPSHOT_VERSION`].
    #[test]
    fn metrics_block_keeps_the_counter_order() {
        struct Idle;
        impl Program for Idle {
            type Msg = ();
            type Output = ();
            fn send(&mut self, _: &crate::View<'_>, _: &mut crate::Outbox<()>) {}
            fn receive(&mut self, _: &crate::View<'_>, _: &[crate::Envelope<()>]) -> crate::Action {
                crate::Action::Halt
            }
            fn output(&self) -> Option<()> {
                None
            }
        }
        persist!(Idle {});
        let graph = awake_graphs::generators::path(1);
        let mut m = Metrics::new(1);
        m.rounds = 99;
        m.messages_sent = 1;
        m.messages_delivered = 2;
        m.messages_lost = 3;
        m.faults_dropped = 4;
        m.faults_duplicated = 5;
        m.faults_delayed = 6;
        m.faults_crashed = 7;
        m.recovery_rounds = 8;
        m.recovery_awake = 9;
        m.awake_events = 10;
        m.rounds_skipped = 11;
        let snap = encode_snapshot(
            &graph,
            &Boundary {
                config: Config::default(),
                prev_round: 99,
                next_wake: vec![NEVER],
                stay: vec![],
                wheel: WakeWheel::new(),
                outputs: vec![None],
                metrics: m,
                tracer: Tracer::new(TraceMode::Off),
                faults: None,
            },
            &[Some(Idle)],
        );
        // The snapshot ends with the metrics block — awake column, rounds,
        // the counters 1..=11 — then an empty tracer and no fault state,
        // so a moved, added or dropped counter shows.
        let mut w = Writer::new();
        vec![0u64].encode(&mut w);
        99u64.encode(&mut w);
        for c in 1..=11u64 {
            c.encode(&mut w);
        }
        Vec::<TraceEvent>::new().encode(&mut w);
        0u64.encode(&mut w);
        w.bytes(&[0]);
        let tail = w.into_bytes();
        assert!(
            snap.as_bytes().ends_with(&tail),
            "metrics block out of order"
        );
    }

    #[test]
    fn error_displays_are_informative() {
        assert!(CheckpointError::Truncated.to_string().contains("truncated"));
        assert!(CheckpointError::BadMagic.to_string().contains("magic"));
        assert!(CheckpointError::UnsupportedVersion(3)
            .to_string()
            .contains("version 3"));
        assert!(CheckpointError::GraphMismatch
            .to_string()
            .contains("different graph"));
        assert!(CheckpointError::TrailingBytes
            .to_string()
            .contains("trailing"));
        let re: ResumeError = CheckpointError::BadMagic.into();
        assert!(re.to_string().contains("magic"));
        let rs: ResumeError = SimError::MissingOutput(NodeId(0)).into();
        assert!(rs.to_string().contains("output"));
    }
}
