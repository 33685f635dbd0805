//! The durable checkpoint file format: a versioned, checksummed binary
//! container for a [`Checkpoint`]'s representation state, written
//! atomically and re-internable into a fresh manager.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! magic    8 B   "BFVRCKPT"
//! version  u32   currently 2
//! engine   str   length-prefixed UTF-8 (EngineKind label, e.g. "BFV")
//! repr     str   the engine's representation: "chi", "bfv" or "cdec"
//! order    str   CLI order token ("s1"/"s2"/"d"/"o:SEED")
//! circuit  str   circuit spec ("gen:..." or a file path)
//! fprint   u64   FNV-1a 64 of the circuit's canonical bench text
//! numvars  u32   manager width the checkpoint was taken in
//! l2v      u32 × (count: u32)   (v2) level → variable map at capture
//!                time; count 0 = identity (no dynamic reorder ran)
//! iters    u64   image iterations completed
//! tag      u8    the engine's representation: 0 = chi, 1 = bfv, 2 = cdec
//!                (3 is retired and refused; a tag that disagrees
//!                with the engine is refused too)
//! body           root counts + a BddDag (see below)
//! checksum u64   FNV-1a 64 of every preceding byte
//! ```
//!
//! The body is one shape for every engine: `reached_count`/`from_count`
//! (u32 each; a χ engine writes 1 and 1, and a χ body with other counts
//! is refused) followed by the shared [`BddDag`] of all roots — node
//! count, `(var, lo, hi)` triples in child-before-parent order, then the
//! root references, reached roots first. Whether a vector's counts fit
//! is the resumed backend's call.
//!
//! ## Robustness contract
//!
//! * [`write_checkpoint`] goes through a same-directory temp file,
//!   fsync, and atomic rename: a crash mid-write leaves the previous
//!   checkpoint (or nothing) — never a torn file at the final path.
//! * [`read_checkpoint`] rejects, with a structured [`CkptError`] and
//!   **never a panic**: short files ([`CkptError::Truncated`]), foreign
//!   files ([`CkptError::BadMagic`]), future versions
//!   ([`CkptError::Version`]), bit rot ([`CkptError::Corrupt`] — the
//!   trailing checksum is verified before any field is trusted), and
//!   well-checksummed but structurally invalid content
//!   ([`CkptError::Malformed`] / [`CkptError::Dag`]).

use std::fs;
use std::io::Write as _;
use std::path::Path;

use bfvr_bdd::{Bdd, BddDag, BddManager, DagError, DagNode, Func};
use bfvr_reach::{Checkpoint, EngineKind, ReprCheckpoint};

/// File magic: the first eight bytes of every checkpoint.
pub const MAGIC: &[u8; 8] = b"BFVRCKPT";
/// Current format version. Version 2 added the level → variable map
/// (dynamic reordering); version-1 files are still read, with an
/// identity map assumed.
pub const VERSION: u32 = 2;

/// FNV-1a 64-bit hash — the format's checksum and the circuit
/// fingerprint function. Hand-rolled (the workspace builds offline with
/// no external crates); not cryptographic, which is fine: the threat
/// model is bit rot and truncation, not an adversary.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The level → variable map to record in a [`CkptMeta`]: the manager's
/// current order when it has been permuted by dynamic reordering, empty
/// (= identity) otherwise — so checkpoints from unsifted runs stay
/// byte-compatible with what version 1 carried semantically.
#[must_use]
pub fn level_map_of(m: &BddManager) -> Vec<u32> {
    if m.order_is_permuted() {
        m.current_order().iter().map(|v| v.0).collect()
    } else {
        Vec::new()
    }
}

/// The engine half of a durable checkpoint plus everything `resume`
/// needs to rebuild the run's context: which circuit (by spec string),
/// which variable order, and a fingerprint to prove the rebuilt circuit
/// is the one the checkpoint was taken against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CkptMeta {
    /// Engine that produced the checkpoint.
    pub engine: EngineKind,
    /// CLI order token (`s1`/`s2`/`d`/`o:SEED`) the manager was built with.
    pub order: String,
    /// Circuit spec: a `gen:` generator spec or a netlist file path.
    pub circuit: String,
    /// FNV-1a 64 fingerprint of the circuit's canonical bench text —
    /// resume recomputes it from the rebuilt circuit and refuses a
    /// mismatch (a renamed or edited netlist file).
    pub fingerprint: u64,
    /// Variable count of the manager the checkpoint was taken in.
    pub num_vars: u32,
    /// The manager's level → variable map when the checkpoint was taken
    /// (`level2var[level] == var`). Empty means identity — the order was
    /// never permuted (and every version-1 file decodes this way). The
    /// DAG in the body labels nodes with *levels*, so resume applies
    /// this permutation ([`BddManager::reorder_to`]) before importing.
    pub level2var: Vec<u32>,
    /// Image iterations completed before the checkpoint.
    pub iterations: usize,
}

/// Why a checkpoint file was rejected (or failed to be written).
#[derive(Debug)]
pub enum CkptError {
    /// Filesystem failure reading or writing.
    Io(std::io::Error),
    /// File shorter than its own structure claims (interrupted write to
    /// a non-atomic location, or truncation corruption).
    Truncated,
    /// Not a checkpoint file at all.
    BadMagic,
    /// A version this build does not understand.
    Version {
        /// The version the file claims.
        found: u32,
    },
    /// Trailing checksum mismatch: the bytes rotted in place.
    Corrupt,
    /// Checksum-valid but structurally invalid content (crafted or
    /// cross-build file).
    Malformed(&'static str),
    /// The BDD DAG inside the body was rejected on import.
    Dag(DagError),
    /// The checkpoint does not belong to the context it was loaded for
    /// (circuit fingerprint or manager width differs).
    Mismatch(String),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint i/o: {e}"),
            CkptError::Truncated => write!(f, "checkpoint file is truncated"),
            CkptError::BadMagic => write!(f, "not a bfvr checkpoint file (bad magic)"),
            CkptError::Version { found } => {
                write!(
                    f,
                    "unsupported checkpoint version {found} (expected {VERSION})"
                )
            }
            CkptError::Corrupt => write!(f, "checkpoint checksum mismatch (file is corrupt)"),
            CkptError::Malformed(why) => write!(f, "malformed checkpoint: {why}"),
            CkptError::Dag(e) => write!(f, "checkpoint graph rejected: {e}"),
            CkptError::Mismatch(why) => write!(f, "checkpoint mismatch: {why}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

impl From<DagError> for CkptError {
    fn from(e: DagError) -> Self {
        CkptError::Dag(e)
    }
}

// ---------------------------------------------------------------- encode

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    #[allow(clippy::cast_possible_truncation)]
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_dag(out: &mut Vec<u8>, dag: &BddDag) {
    #[allow(clippy::cast_possible_truncation)]
    put_u32(out, dag.nodes.len() as u32);
    for n in &dag.nodes {
        put_u32(out, n.var);
        put_u32(out, n.lo);
        put_u32(out, n.hi);
    }
    #[allow(clippy::cast_possible_truncation)]
    put_u32(out, dag.roots.len() as u32);
    for &r in &dag.roots {
        put_u32(out, r);
    }
}

/// The header's representation label and state tag. Each engine
/// iterates on one representation, so both follow from the engine; the
/// header keeps them so that version-2 files written before keep their
/// layout.
fn repr_of(engine: EngineKind) -> (&'static str, u8) {
    match engine {
        EngineKind::Cbm | EngineKind::Monolithic | EngineKind::Iwls95 => ("chi", 0),
        EngineKind::Bfv => ("bfv", 1),
        EngineKind::Cdec => ("cdec", 2),
    }
}

/// Serializes a checkpoint into the container format (checksum
/// included) without touching the filesystem.
#[must_use]
pub fn encode_checkpoint(m: &BddManager, meta: &CkptMeta, state: &ReprCheckpoint) -> Vec<u8> {
    let (label, tag) = repr_of(meta.engine);
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_str(&mut out, meta.engine.label());
    put_str(&mut out, label);
    put_str(&mut out, &meta.order);
    put_str(&mut out, &meta.circuit);
    put_u64(&mut out, meta.fingerprint);
    put_u32(&mut out, meta.num_vars);
    #[allow(clippy::cast_possible_truncation)]
    put_u32(&mut out, meta.level2var.len() as u32);
    for &v in &meta.level2var {
        put_u32(&mut out, v);
    }
    put_u64(&mut out, meta.iterations as u64);
    out.push(tag);
    #[allow(clippy::cast_possible_truncation)]
    put_u32(&mut out, state.reached.len() as u32);
    #[allow(clippy::cast_possible_truncation)]
    put_u32(&mut out, state.from.len() as u32);
    let roots: Vec<Bdd> = state
        .reached
        .iter()
        .chain(&state.from)
        .map(Func::bdd)
        .collect();
    put_dag(&mut out, &m.export_dag(&roots));
    let sum = fnv1a64(&out);
    put_u64(&mut out, sum);
    out
}

/// Writes a checkpoint durably: encode, write to a same-directory temp
/// file, fsync, atomically rename over `path`, then best-effort fsync
/// the directory. A crash at any point leaves either the old file or
/// the new one — never a torn mixture.
///
/// # Errors
///
/// [`CkptError::Io`] on any filesystem failure.
pub fn write_checkpoint(
    path: &Path,
    m: &BddManager,
    meta: &CkptMeta,
    state: &ReprCheckpoint,
) -> Result<(), CkptError> {
    let bytes = encode_checkpoint(m, meta, state);
    let tmp = path.with_extension("ckpt.tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = fs::rename(&tmp, path) {
        // Leave no droppings behind a failed rename.
        let _ = fs::remove_file(&tmp);
        return Err(CkptError::Io(e));
    }
    if let Some(dir) = path.parent() {
        // Directory fsync makes the rename itself durable; best-effort
        // because not every filesystem supports opening directories.
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- decode

/// Bounds-checked cursor over the checksummed payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        let end = self.pos.checked_add(n).ok_or(CkptError::Truncated)?;
        if end > self.buf.len() {
            return Err(CkptError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CkptError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CkptError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn str(&mut self) -> Result<String, CkptError> {
        let len = self.u32()? as usize;
        let b = self.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| CkptError::Malformed("non-UTF-8 string field"))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

fn parse_meta(c: &mut Cursor<'_>, version: u32) -> Result<CkptMeta, CkptError> {
    let engine_label = c.str()?;
    let label = c.str()?;
    let order = c.str()?;
    let circuit = c.str()?;
    let fingerprint = c.u64()?;
    let num_vars = c.u32()?;
    // Version 1 predates dynamic reordering: identity map.
    let level2var = if version >= 2 {
        let count = c.u32()? as usize;
        if count > c.remaining() / 4 {
            return Err(CkptError::Truncated);
        }
        if count != 0 && count != num_vars as usize {
            return Err(CkptError::Malformed(
                "level map length disagrees with variable count",
            ));
        }
        let mut map = Vec::with_capacity(count);
        for _ in 0..count {
            map.push(c.u32()?);
        }
        map
    } else {
        Vec::new()
    };
    let iterations = c.u64()?;
    let engine =
        EngineKind::parse(&engine_label).ok_or(CkptError::Malformed("unknown engine label"))?;
    if !EngineKind::all().into_iter().any(|e| repr_of(e).0 == label) {
        return Err(CkptError::Malformed("unknown representation label"));
    }
    if repr_of(engine).0 != label {
        return Err(CkptError::Malformed(
            "engine does not drive this representation",
        ));
    }
    let iterations = usize::try_from(iterations)
        .map_err(|_| CkptError::Malformed("iteration count overflow"))?;
    Ok(CkptMeta {
        engine,
        order,
        circuit,
        fingerprint,
        num_vars,
        level2var,
        iterations,
    })
}

fn parse_dag(c: &mut Cursor<'_>, num_vars: u32) -> Result<BddDag, CkptError> {
    let node_count = c.u32()? as usize;
    // Each node is 12 bytes; refuse counts the remaining bytes cannot
    // hold before allocating (a crafted file must not OOM the loader).
    if node_count > c.remaining() / 12 {
        return Err(CkptError::Truncated);
    }
    let mut nodes = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        let var = c.u32()?;
        let lo = c.u32()?;
        let hi = c.u32()?;
        nodes.push(DagNode { var, lo, hi });
    }
    let root_count = c.u32()? as usize;
    if root_count > c.remaining() / 4 {
        return Err(CkptError::Truncated);
    }
    let mut roots = Vec::with_capacity(root_count);
    for _ in 0..root_count {
        roots.push(c.u32()?);
    }
    Ok(BddDag {
        num_vars,
        nodes,
        roots,
    })
}

/// Verifies container integrity (length, magic, version, checksum) and
/// returns the version plus the checksummed payload after the version
/// field. Versions 1 (no level map) and 2 are understood.
fn verify_container(bytes: &[u8]) -> Result<(u32, &[u8]), CkptError> {
    // Smallest conceivable file: magic + version + empty meta + tag +
    // checksum. Anything shorter can't even hold the frame.
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(CkptError::Truncated);
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(CkptError::BadMagic);
    }
    let body = &bytes[..bytes.len() - 8];
    let stored = u64::from_le_bytes(
        bytes[bytes.len() - 8..]
            .try_into()
            .map_err(|_| CkptError::Truncated)?,
    );
    if fnv1a64(body) != stored {
        return Err(CkptError::Corrupt);
    }
    let mut c = Cursor {
        buf: body,
        pos: MAGIC.len(),
    };
    let version = c.u32()?;
    if version == 0 || version > VERSION {
        return Err(CkptError::Version { found: version });
    }
    Ok((version, &body[c.pos..]))
}

/// Reads just the metadata header of an encoded checkpoint, verifying
/// the checksum first. Used by the supervisor to route a file without
/// paying for re-interning.
///
/// # Errors
///
/// Any container-level [`CkptError`].
pub fn decode_meta(bytes: &[u8]) -> Result<CkptMeta, CkptError> {
    let (version, payload) = verify_container(bytes)?;
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    parse_meta(&mut c, version)
}

/// Decodes an encoded checkpoint and re-interns its state into `m`,
/// returning the metadata and a [`Checkpoint`] ready for
/// [`bfvr_reach::resume`]. The manager must be the one built for the
/// checkpoint's circuit and order — `num_vars` is checked here, the
/// circuit fingerprint by the caller (who rebuilt the circuit).
///
/// # Errors
///
/// Container-level errors ([`CkptError::Truncated`] /
/// [`CkptError::BadMagic`] / [`CkptError::Version`] /
/// [`CkptError::Corrupt`]), [`CkptError::Malformed`] for structural
/// violations, [`CkptError::Dag`] when the graph is rejected on import,
/// and [`CkptError::Mismatch`] when `m` has the wrong width.
pub fn decode_checkpoint(
    bytes: &[u8],
    m: &mut BddManager,
) -> Result<(CkptMeta, Checkpoint), CkptError> {
    let (version, payload) = verify_container(bytes)?;
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let meta = parse_meta(&mut c, version)?;
    if meta.num_vars != m.num_vars() {
        return Err(CkptError::Mismatch(format!(
            "checkpoint was taken over {} variables, manager has {}",
            meta.num_vars,
            m.num_vars()
        )));
    }
    // The body's DAG labels nodes with *levels* under the order the
    // checkpoint was captured in; permute the fresh manager to that
    // order before importing, so every re-interned edge means the same
    // function it did when written.
    if !meta.level2var.is_empty() {
        m.reorder_to(&meta.level2var, &[])
            .map_err(|_| CkptError::Malformed("level map is not a valid permutation"))?;
    }
    let tag = c.u8()?;
    if tag > 2 {
        return Err(CkptError::Malformed("unknown state variant tag"));
    }
    if tag != repr_of(meta.engine).1 {
        return Err(CkptError::Malformed("state tag disagrees with the engine"));
    }
    let reached_count = c.u32()? as usize;
    let from_count = c.u32()? as usize;
    if tag == 0 && (reached_count, from_count) != (1, 1) {
        return Err(CkptError::Malformed(
            "chi checkpoint needs exactly one root per set",
        ));
    }
    let dag = parse_dag(&mut c, meta.num_vars)?;
    let total = reached_count
        .checked_add(from_count)
        .ok_or(CkptError::Malformed("root count overflow"))?;
    if dag.roots.len() != total {
        return Err(CkptError::Malformed("root count disagrees with dag"));
    }
    let edges = m.import_dag(&dag)?;
    let mut reached: Vec<Func> = edges.into_iter().map(|e| m.func(e)).collect();
    let from = reached.split_off(reached_count);
    let state = ReprCheckpoint { reached, from };
    if c.remaining() != 0 {
        return Err(CkptError::Malformed("trailing bytes after state"));
    }
    let cp = Checkpoint::new(meta.engine, meta.iterations, state);
    Ok((meta, cp))
}

/// Reads and decodes a checkpoint file (see [`decode_checkpoint`]).
///
/// # Errors
///
/// [`CkptError::Io`] on read failure, else as [`decode_checkpoint`].
pub fn read_checkpoint(
    path: &Path,
    m: &mut BddManager,
) -> Result<(CkptMeta, Checkpoint), CkptError> {
    let bytes = fs::read(path)?;
    decode_checkpoint(&bytes, m)
}

/// Reads and decodes just a checkpoint file's header (see
/// [`decode_meta`]).
///
/// # Errors
///
/// [`CkptError::Io`] on read failure, else as [`decode_meta`].
pub fn read_meta(path: &Path) -> Result<CkptMeta, CkptError> {
    let bytes = fs::read(path)?;
    decode_meta(&bytes)
}
