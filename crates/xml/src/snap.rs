//! On-disk document snapshots: parse once, `mmap` forever.
//!
//! A snapshot is the document's flat arenas ([`crate::Document`]'s
//! storage layout) written verbatim, plus the eagerly-built ID/IDREF
//! tables, so a load performs **zero parse work**: the file
//! is mapped read-only (the internal `bytes` module) and every array
//! becomes a validated slice view into the mapping. This is the cold-start story
//! for a server fleet — re-opening a multi-million-node document costs
//! one `mmap(2)` plus header validation, not a re-parse.
//!
//! # File layout (version 3, little-endian only)
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0  | 8 | magic `"GKPXSNAP"` |
//! | 8  | 4 | format version (`u32`, currently 3) |
//! | 12 | 4 | section count |
//! | 16 | 8 | total file length in bytes (`u64`) |
//! | 24 | 4 | node count `n` |
//! | 28 | 4 | name count `k` |
//! | 32 | 4 | ID-table entry count |
//! | 36 | 4 | ref-table entry count |
//! | 40 | 8 | header checksum: [`checksum`] of bytes `0..40` ++ directory |
//! | 48 | 32 × count | section directory |
//!
//! Each directory entry is `{tag: u32, reserved: u32, offset: u64,
//! length: u64, checksum: u64}`; offsets are 8-aligned and in file
//! order. The sections are the node arrays (`KIND` is one byte per node;
//! `NAME`/`VALUE_OFF`/`VALUE_LEN`/`PARENT`/`PREV_SIBLING`/`SUBTREE_END`
//! are `u32` per node), the `SPECIAL`
//! attribute/namespace bitmask (`u64` words), the `TEXT` and
//! `NAME_BYTES`/`NAME_OFF`/`NAME_SORTED` arenas, the sorted
//! `ID_KEY`/`ID_OWNER` and `REF_FROM`/`REF_TO` tables, and the
//! serialized [`IdPolicy`]. The parsed DTD internal subset is
//! intentionally **not** serialized: its only evaluation-visible effects
//! (which attributes are IDs) are already folded into the stored policy
//! and prebuilt tables. Retired tags are never reused: version 2 dropped
//! tag 10 (version 1's post-order rank, `POST`), and version 3 drops tags
//! 6 (`FIRST_CHILD`) and 7 (`NEXT_SIBLING`), which the document derives
//! from `PARENT` and `SUBTREE_END` (see [`crate::Document`]'s storage
//! table). A node costs 25 bytes of arrays plus one mask bit.
//!
//! # Integrity model
//!
//! Every open validates the magic, version, total length, section-count
//! sanity, the **header checksum** (which covers all header fields *and*
//! the directory — so every stored per-section checksum is itself
//! tamper-evident), section bounds/alignment, section-size/count
//! consistency, the name table (monotone offsets, UTF-8) and the ID
//! policy. That is O(header), which is what keeps a load ~10³× cheaper
//! than a parse. Truncation, bit flips anywhere in the header or
//! directory (including the checksum fields), wrong magic, future
//! versions, and out-of-bounds section offsets all fail with a typed
//! [`SnapError`].
//!
//! Flipped bits in bulk *section data* are only caught by the per-section
//! checksums, which an O(file) **deep verification** pass checks —
//! [`verify`], `xpq snapshot verify`, or [`OpenOptions::verify`] — along
//! with full semantic validation (kind bytes, link targets in range,
//! preorder intervals nested under their parents, `PREV_SIBLING` against
//! the derived sibling runs, name ids, UTF-8 value spans, the special
//! mask against the kinds, sorted ID/ref tables).
//! Default opens trust data sections the way any mmap'd store does
//! (LMDB, flat buffers): the file was sealed with checksums at write
//! time and published by atomic rename; accessors are bounds-checked,
//! the derived child and sibling walks end in bounds whatever
//! `SUBTREE_END` holds, and a `PARENT` or `PREV_SIBLING` link that does
//! not point to an earlier node ends its chain, so corrupt payloads
//! degrade to wrong query answers, never to UB or a hang.
//!
//! Version bumps are strict: a reader only accepts its own
//! `FORMAT_VERSION`; anything older or newer fails with
//! [`SnapError::UnsupportedVersion`].

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;

use crate::bytes::{as_bytes, Arr, ByteRegion};
use crate::document::{special_mask, DocData, Document, IdPolicy, IdTable, RefTable, NONE};
use crate::node::NodeKind;
use crate::rng::splitmix64;

#[cfg(target_endian = "big")]
compile_error!("snapshots are defined little-endian; big-endian targets are unsupported");

/// Magic bytes at offset 0.
pub const MAGIC: [u8; 8] = *b"GKPXSNAP";
/// The snapshot format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 3;

const HEADER_LEN: usize = 48;
const DIR_ENTRY_LEN: usize = 32;
const MAX_SECTIONS: u32 = 64;

// Section tags (part of the format; never renumber). Retired, never
// reused: 6 and 7 (version 2's first-child and next-sibling links) and 10
// (version 1's post-order rank).
const TAG_KIND: u32 = 1;
const TAG_NAME: u32 = 2;
const TAG_VALUE_OFF: u32 = 3;
const TAG_VALUE_LEN: u32 = 4;
const TAG_PARENT: u32 = 5;
const TAG_PREV_SIBLING: u32 = 8;
const TAG_SUBTREE_END: u32 = 9;
const TAG_SPECIAL: u32 = 11;
const TAG_TEXT: u32 = 12;
const TAG_NAME_BYTES: u32 = 13;
const TAG_NAME_OFF: u32 = 14;
const TAG_NAME_SORTED: u32 = 15;
const TAG_ID_KEY: u32 = 16;
const TAG_ID_OWNER: u32 = 17;
const TAG_REF_FROM: u32 = 18;
const TAG_REF_TO: u32 = 19;
const TAG_ID_POLICY: u32 = 20;

fn tag_name(tag: u32) -> &'static str {
    match tag {
        TAG_KIND => "KIND",
        TAG_NAME => "NAME",
        TAG_VALUE_OFF => "VALUE_OFF",
        TAG_VALUE_LEN => "VALUE_LEN",
        TAG_PARENT => "PARENT",
        TAG_PREV_SIBLING => "PREV_SIBLING",
        TAG_SUBTREE_END => "SUBTREE_END",
        TAG_SPECIAL => "SPECIAL",
        TAG_TEXT => "TEXT",
        TAG_NAME_BYTES => "NAME_BYTES",
        TAG_NAME_OFF => "NAME_OFF",
        TAG_NAME_SORTED => "NAME_SORTED",
        TAG_ID_KEY => "ID_KEY",
        TAG_ID_OWNER => "ID_OWNER",
        TAG_REF_FROM => "REF_FROM",
        TAG_REF_TO => "REF_TO",
        TAG_ID_POLICY => "ID_POLICY",
        _ => "UNKNOWN",
    }
}

/// Typed snapshot failure. Every corruption mode detectable from the
/// header — truncation, bit flips in header/directory (including stored
/// checksums), wrong magic, future versions, out-of-bounds sections —
/// maps to a distinct variant; nothing panics.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The file is shorter (or longer) than the header claims.
    Truncated {
        /// Length recorded in the header.
        expected: u64,
        /// Actual file length.
        actual: u64,
    },
    /// A checksum did not match; the payload names what was covered.
    ChecksumMismatch(&'static str),
    /// A directory entry points outside the file (or is misaligned).
    SectionOutOfBounds(&'static str),
    /// A required section is absent from the directory.
    MissingSection(&'static str),
    /// Structurally invalid content (sizes, counts, encodings, or — in
    /// deep verification — semantic tree invariants).
    Malformed(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (this build reads {FORMAT_VERSION})")
            }
            SnapError::Truncated { expected, actual } => {
                write!(f, "truncated snapshot: header says {expected} bytes, file has {actual}")
            }
            SnapError::ChecksumMismatch(what) => write!(f, "checksum mismatch in {what}"),
            SnapError::SectionOutOfBounds(s) => write!(f, "section {s} out of bounds"),
            SnapError::MissingSection(s) => write!(f, "missing section {s}"),
            SnapError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapError {
    fn from(e: io::Error) -> SnapError {
        SnapError::Io(e)
    }
}

/// Summary of a snapshot file, as reported by [`info`]/[`verify`] and
/// `xpq snapshot info`.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SnapshotInfo {
    /// Format version of the file.
    pub version: u32,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Node count.
    pub nodes: u32,
    /// Interned name count.
    pub names: u32,
    /// ID-table entries.
    pub ids: u32,
    /// Ref-table entries.
    pub refs: u32,
    /// Bytes in the text (value) arena.
    pub text_bytes: u64,
}

/// How to open a snapshot. The default (`mmap` on, deep verification
/// off) is the production fast path.
#[derive(Debug, Clone, Copy)]
pub struct OpenOptions {
    /// Map the file instead of reading it into an owned buffer.
    /// Unsupported platforms (and Miri) use the owned path regardless.
    pub mmap: bool,
    /// Also run the O(file) deep verification (per-section checksums +
    /// semantic tree invariants) before returning the document.
    pub verify: bool,
}

impl Default for OpenOptions {
    fn default() -> Self {
        OpenOptions { mmap: true, verify: false }
    }
}

// ---------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------

/// The snapshot checksum: a 4-lane multiply-mix over 32-byte blocks
/// (lane `k` folds word `k` as `h[k] = (h[k] ^ w) * M`), seeded with the
/// input length, finalized by cross-lane rotate-xor-multiply and a
/// splitmix64 avalanche. Not cryptographic — it detects corruption, not
/// adversaries — but diffuses single-bit flips through all 64 output
/// bits and streams at memory bandwidth.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    const M: u64 = 0x2545_F491_4F6C_DD1D;
    let mut h = [
        0x9E37_79B9_7F4A_7C15u64 ^ (bytes.len() as u64),
        0x6A09_E667_F3BC_C909,
        0xBB67_AE85_84CA_A73B,
        0x3C6E_F372_FE94_F82B,
    ];
    let mut chunks = bytes.chunks_exact(32);
    for c in &mut chunks {
        for (k, lane) in h.iter_mut().enumerate() {
            let w = u64::from_le_bytes(c[k * 8..k * 8 + 8].try_into().expect("8-byte word"));
            *lane = (*lane ^ w).wrapping_mul(M);
        }
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 32];
        tail[..rem.len()].copy_from_slice(rem);
        for (k, lane) in h.iter_mut().enumerate() {
            let w = u64::from_le_bytes(tail[k * 8..k * 8 + 8].try_into().expect("8-byte word"));
            *lane = (*lane ^ w).wrapping_mul(M);
        }
    }
    let mut x = h[0];
    x = x.rotate_left(23) ^ h[1];
    x = x.wrapping_mul(M);
    x = x.rotate_left(19) ^ h[2];
    x = x.wrapping_mul(M);
    x = x.rotate_left(13) ^ h[3];
    splitmix64(x)
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

fn encode_id_policy(p: &IdPolicy) -> Vec<u8> {
    let mut out = Vec::new();
    let push_str = |out: &mut Vec<u8>, s: &str| {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    };
    out.extend_from_slice(&(p.id_attributes.len() as u32).to_le_bytes());
    for a in &p.id_attributes {
        push_str(&mut out, a);
    }
    out.extend_from_slice(&(p.scoped_id_attributes.len() as u32).to_le_bytes());
    for (e, a) in &p.scoped_id_attributes {
        push_str(&mut out, e);
        push_str(&mut out, a);
    }
    out
}

fn decode_id_policy(bytes: &[u8]) -> Result<IdPolicy, SnapError> {
    let bad = SnapError::Malformed("ID_POLICY encoding");
    let mut pos = 0usize;
    let read_u32 = |pos: &mut usize| -> Result<u32, SnapError> {
        let end = pos.checked_add(4).ok_or(SnapError::Malformed("ID_POLICY encoding"))?;
        let s = bytes.get(*pos..end).ok_or(SnapError::Malformed("ID_POLICY encoding"))?;
        *pos = end;
        Ok(u32::from_le_bytes(s.try_into().expect("4 bytes")))
    };
    let read_str = |pos: &mut usize| -> Result<String, SnapError> {
        let len = {
            let end = pos.checked_add(4).ok_or(SnapError::Malformed("ID_POLICY encoding"))?;
            let s = bytes.get(*pos..end).ok_or(SnapError::Malformed("ID_POLICY encoding"))?;
            *pos = end;
            u32::from_le_bytes(s.try_into().expect("4 bytes")) as usize
        };
        let end = pos.checked_add(len).ok_or(SnapError::Malformed("ID_POLICY encoding"))?;
        let s = bytes.get(*pos..end).ok_or(SnapError::Malformed("ID_POLICY encoding"))?;
        *pos = end;
        String::from_utf8(s.to_vec()).map_err(|_| SnapError::Malformed("ID_POLICY encoding"))
    };
    let n_plain = read_u32(&mut pos)?;
    if n_plain > 4096 {
        return Err(bad);
    }
    let mut id_attributes = Vec::with_capacity(n_plain as usize);
    for _ in 0..n_plain {
        id_attributes.push(read_str(&mut pos)?);
    }
    let n_scoped = read_u32(&mut pos)?;
    if n_scoped > 4096 {
        return Err(bad);
    }
    let mut scoped_id_attributes = Vec::with_capacity(n_scoped as usize);
    for _ in 0..n_scoped {
        let e = read_str(&mut pos)?;
        let a = read_str(&mut pos)?;
        scoped_id_attributes.push((e, a));
    }
    if pos != bytes.len() {
        return Err(bad);
    }
    Ok(IdPolicy { id_attributes, scoped_id_attributes })
}

/// Stream a snapshot of `doc` into `w`: the header and directory first
/// (one buffered write — checksums are computed from the live arena
/// slices, so nothing needs to be staged), then each section payload
/// followed by its 8-alignment padding. Peak writer-side memory is
/// O(header + directory), not O(file): the arenas themselves are written
/// straight from the document's storage in section-sized `write` calls.
/// Forces the id/ref tables so loads get them for free.
pub fn write_to(doc: &Document, w: &mut dyn io::Write) -> Result<SnapshotInfo, SnapError> {
    let ids = doc.id_table();
    let refs = doc.ref_table();
    let d = &doc.data;
    let policy = encode_id_policy(doc.id_policy());

    let sections: Vec<(u32, &[u8])> = vec![
        (TAG_KIND, as_bytes(d.kind.as_slice())),
        (TAG_NAME, as_bytes(d.name.as_slice())),
        (TAG_VALUE_OFF, as_bytes(d.value_off.as_slice())),
        (TAG_VALUE_LEN, as_bytes(d.value_len.as_slice())),
        (TAG_PARENT, as_bytes(d.parent.as_slice())),
        (TAG_PREV_SIBLING, as_bytes(d.prev_sibling.as_slice())),
        (TAG_SUBTREE_END, as_bytes(d.subtree_end.as_slice())),
        (TAG_SPECIAL, as_bytes(d.special.as_slice())),
        (TAG_TEXT, as_bytes(d.text.as_slice())),
        (TAG_NAME_BYTES, as_bytes(d.name_bytes.as_slice())),
        (TAG_NAME_OFF, as_bytes(d.name_off.as_slice())),
        (TAG_NAME_SORTED, as_bytes(d.name_sorted.as_slice())),
        (TAG_ID_KEY, as_bytes(ids.key_node.as_slice())),
        (TAG_ID_OWNER, as_bytes(ids.owner.as_slice())),
        (TAG_REF_FROM, as_bytes(refs.from.as_slice())),
        (TAG_REF_TO, as_bytes(refs.to.as_slice())),
        (TAG_ID_POLICY, &policy),
    ];

    // Lay out sections 8-aligned after the directory.
    let dir_len = sections.len() * DIR_ENTRY_LEN;
    let head_end = (HEADER_LEN + dir_len).next_multiple_of(8);
    let mut off = head_end as u64;
    let mut entries = Vec::with_capacity(sections.len());
    for (tag, bytes) in &sections {
        entries.push((*tag, off, bytes.len() as u64, checksum(bytes)));
        off = (off + bytes.len() as u64).next_multiple_of(8);
    }
    let total_len =
        entries.last().map_or(head_end as u64, |&(_, o, l, _)| (o + l).next_multiple_of(8));

    let mut head = vec![0u8; head_end];
    head[0..8].copy_from_slice(&MAGIC);
    head[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    head[12..16].copy_from_slice(&(sections.len() as u32).to_le_bytes());
    head[16..24].copy_from_slice(&total_len.to_le_bytes());
    head[24..28].copy_from_slice(&(doc.len() as u32).to_le_bytes());
    head[28..32].copy_from_slice(&(d.name_sorted.len() as u32).to_le_bytes());
    head[32..36].copy_from_slice(&(ids.key_node.len() as u32).to_le_bytes());
    head[36..40].copy_from_slice(&(refs.from.len() as u32).to_le_bytes());
    for (i, &(tag, off, len, sum)) in entries.iter().enumerate() {
        let e = HEADER_LEN + i * DIR_ENTRY_LEN;
        head[e..e + 4].copy_from_slice(&tag.to_le_bytes());
        head[e + 8..e + 16].copy_from_slice(&off.to_le_bytes());
        head[e + 16..e + 24].copy_from_slice(&len.to_le_bytes());
        head[e + 24..e + 32].copy_from_slice(&sum.to_le_bytes());
    }
    // Header checksum covers the fixed fields and the whole directory —
    // so the stored per-section checksums are themselves tamper-evident.
    let hsum = header_checksum(&head, sections.len());
    head[40..48].copy_from_slice(&hsum.to_le_bytes());
    w.write_all(&head)?;

    const PAD: [u8; 8] = [0u8; 8];
    for (&(_, off, len, _), (_, bytes)) in entries.iter().zip(&sections) {
        w.write_all(bytes)?;
        let pad = (off + len).next_multiple_of(8) - (off + len);
        if pad > 0 {
            w.write_all(&PAD[..pad as usize])?;
        }
    }
    w.flush()?;
    Ok(SnapshotInfo {
        version: FORMAT_VERSION,
        file_bytes: total_len,
        nodes: doc.len() as u32,
        names: d.name_sorted.len() as u32,
        ids: ids.key_node.len() as u32,
        refs: refs.from.len() as u32,
        text_bytes: d.text.len() as u64,
    })
}

fn header_checksum(file: &[u8], section_count: usize) -> u64 {
    let dir_end = HEADER_LEN + section_count * DIR_ENTRY_LEN;
    let mut covered = Vec::with_capacity(40 + section_count * DIR_ENTRY_LEN);
    covered.extend_from_slice(&file[0..40]);
    covered.extend_from_slice(&file[HEADER_LEN..dir_end]);
    checksum(&covered)
}

/// Write a snapshot of `doc` to `path` (create or truncate), streaming
/// section-by-section via [`write_to`] — the whole-file image is never
/// buffered in memory. Returns a summary of what was written. Not atomic
/// by itself — the
/// [`DocumentStore`](../../xpath_core/store/struct.DocumentStore.html)
/// publishes through a temp file + rename.
pub fn write(doc: &Document, path: &Path) -> Result<SnapshotInfo, SnapError> {
    let mut file = fs::File::create(path)?;
    let info = write_to(doc, &mut file)?;
    // Seal the contents before any rename that may follow: a publish
    // must never expose a file whose data is still in flight.
    file.sync_all()?;
    Ok(info)
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

struct Header {
    nodes: u32,
    names: u32,
    ids: u32,
    refs: u32,
    total_len: u64,
}

struct Section {
    off: usize,
    len: usize,
    sum: u64,
}

struct Parsed {
    header: Header,
    /// Indexed by tag.
    sections: Vec<Option<Section>>,
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"))
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"))
}

/// O(header) structural validation: magic, version, length, header
/// checksum (covering the directory and its stored section checksums),
/// section bounds and alignment.
fn parse_header(file: &[u8]) -> Result<Parsed, SnapError> {
    if file.len() < HEADER_LEN {
        return Err(SnapError::Truncated {
            expected: HEADER_LEN as u64,
            actual: file.len() as u64,
        });
    }
    if file[0..8] != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = read_u32(file, 8);
    if version != FORMAT_VERSION {
        return Err(SnapError::UnsupportedVersion(version));
    }
    let section_count = read_u32(file, 12);
    let total_len = read_u64(file, 16);
    if total_len != file.len() as u64 {
        return Err(SnapError::Truncated { expected: total_len, actual: file.len() as u64 });
    }
    if section_count > MAX_SECTIONS {
        return Err(SnapError::Malformed("section count"));
    }
    let dir_end = HEADER_LEN + section_count as usize * DIR_ENTRY_LEN;
    if dir_end > file.len() {
        return Err(SnapError::Truncated { expected: dir_end as u64, actual: file.len() as u64 });
    }
    if header_checksum(file, section_count as usize) != read_u64(file, 40) {
        return Err(SnapError::ChecksumMismatch("header/directory"));
    }
    let header = Header {
        nodes: read_u32(file, 24),
        names: read_u32(file, 28),
        ids: read_u32(file, 32),
        refs: read_u32(file, 36),
        total_len,
    };
    let mut sections: Vec<Option<Section>> = (0..=TAG_ID_POLICY).map(|_| None).collect();
    for i in 0..section_count as usize {
        let e = HEADER_LEN + i * DIR_ENTRY_LEN;
        let tag = read_u32(file, e);
        let off = read_u64(file, e + 8);
        let len = read_u64(file, e + 16);
        let sum = read_u64(file, e + 24);
        let name = tag_name(tag);
        let end = off.checked_add(len).ok_or(SnapError::SectionOutOfBounds(name))?;
        if end > file.len() as u64 || !off.is_multiple_of(8) {
            return Err(SnapError::SectionOutOfBounds(name));
        }
        if let Some(slot) = sections.get_mut(tag as usize) {
            if slot.is_some() {
                return Err(SnapError::Malformed("duplicate section tag"));
            }
            *slot = Some(Section { off: off as usize, len: len as usize, sum });
        }
        // Unknown tags within a known version are ignored (room for
        // additive minor extensions without a version bump).
    }
    Ok(Parsed { header, sections })
}

impl Parsed {
    fn sec(&self, tag: u32) -> Result<&Section, SnapError> {
        self.sections[tag as usize].as_ref().ok_or(SnapError::MissingSection(tag_name(tag)))
    }

    fn sized(&self, tag: u32, expect_len: usize) -> Result<&Section, SnapError> {
        let s = self.sec(tag)?;
        if s.len != expect_len {
            return Err(SnapError::Malformed("section size inconsistent with header counts"));
        }
        Ok(s)
    }
}

fn arr<T: crate::bytes::Pod>(region: &Arc<ByteRegion>, s: &Section) -> Result<Arr<T>, SnapError> {
    Arr::mapped(region, s.off, s.len).map_err(SnapError::Malformed)
}

fn open_region(path: &Path, opts: &OpenOptions) -> Result<ByteRegion, SnapError> {
    if opts.mmap {
        Ok(ByteRegion::map_file(path)?.0)
    } else {
        Ok(ByteRegion::read_file(path)?)
    }
}

/// Load a snapshot with default [`OpenOptions`] (mmap'd, O(header)
/// validation). The returned document shares the mapping — cloning its
/// arrays is O(1) and nothing is parsed or copied.
pub fn load(path: &Path) -> Result<Document, SnapError> {
    load_with(path, &OpenOptions::default())
}

/// Load a snapshot with explicit options.
pub fn load_with(path: &Path, opts: &OpenOptions) -> Result<Document, SnapError> {
    let region = Arc::new(open_region(path, opts)?);
    let parsed = parse_header(region.bytes())?;
    if opts.verify {
        deep_verify_sections(region.bytes(), &parsed)?;
    }
    let doc = assemble(&region, &parsed)?;
    if opts.verify {
        deep_verify_semantics(&doc, &parsed.header)?;
    }
    Ok(doc)
}

/// Quick-open `path` and report its header summary (O(header)).
pub fn info(path: &Path) -> Result<SnapshotInfo, SnapError> {
    let region = Arc::new(open_region(path, &OpenOptions::default())?);
    let parsed = parse_header(region.bytes())?;
    Ok(SnapshotInfo {
        version: FORMAT_VERSION,
        file_bytes: parsed.header.total_len,
        nodes: parsed.header.nodes,
        names: parsed.header.names,
        ids: parsed.header.ids,
        refs: parsed.header.refs,
        text_bytes: parsed.sec(TAG_TEXT)?.len as u64,
    })
}

/// Deep verification: the O(file) pass — every per-section checksum plus
/// full semantic validation of the tree invariants. Returns the header
/// summary on success.
pub fn verify(path: &Path) -> Result<SnapshotInfo, SnapError> {
    let opts = OpenOptions { mmap: true, verify: true };
    let _doc = load_with(path, &opts)?;
    info(path)
}

fn assemble(region: &Arc<ByteRegion>, p: &Parsed) -> Result<Document, SnapError> {
    let n = p.header.nodes as usize;
    let k = p.header.names as usize;
    let idc = p.header.ids as usize;
    let refc = p.header.refs as usize;
    if n == 0 {
        return Err(SnapError::Malformed("empty document"));
    }

    let data = DocData {
        kind: arr(region, p.sized(TAG_KIND, n)?)?,
        name: arr(region, p.sized(TAG_NAME, 4 * n)?)?,
        value_off: arr(region, p.sized(TAG_VALUE_OFF, 4 * n)?)?,
        value_len: arr(region, p.sized(TAG_VALUE_LEN, 4 * n)?)?,
        parent: arr(region, p.sized(TAG_PARENT, 4 * n)?)?,
        prev_sibling: arr(region, p.sized(TAG_PREV_SIBLING, 4 * n)?)?,
        subtree_end: arr(region, p.sized(TAG_SUBTREE_END, 4 * n)?)?,
        special: arr(region, p.sized(TAG_SPECIAL, 8 * n.div_ceil(64))?)?,
        text: arr(region, p.sec(TAG_TEXT)?)?,
        name_bytes: arr(region, p.sec(TAG_NAME_BYTES)?)?,
        name_off: arr(region, p.sized(TAG_NAME_OFF, 4 * (k + 1))?)?,
        name_sorted: arr(region, p.sized(TAG_NAME_SORTED, 4 * k)?)?,
    };
    let ids = IdTable {
        key_node: arr(region, p.sized(TAG_ID_KEY, 4 * idc)?)?,
        owner: arr(region, p.sized(TAG_ID_OWNER, 4 * idc)?)?,
    };
    let refs = RefTable {
        from: arr(region, p.sized(TAG_REF_FROM, 4 * refc)?)?,
        to: arr(region, p.sized(TAG_REF_TO, 4 * refc)?)?,
    };
    let policy_sec = p.sec(TAG_ID_POLICY)?;
    let policy =
        decode_id_policy(&region.bytes()[policy_sec.off..policy_sec.off + policy_sec.len])?;

    // Name-table sanity is always checked (O(names), tiny): monotone
    // offsets bounding the name arena, valid UTF-8.
    {
        let offs = data.name_off.as_slice();
        if offs.first() != Some(&0) && k > 0 {
            return Err(SnapError::Malformed("name offset table"));
        }
        if offs.windows(2).any(|w| w[0] > w[1]) {
            return Err(SnapError::Malformed("name offset table"));
        }
        if offs.last().is_some_and(|&last| last as usize != data.name_bytes.len()) {
            return Err(SnapError::Malformed("name offset table"));
        }
        if std::str::from_utf8(data.name_bytes.as_slice()).is_err() {
            return Err(SnapError::Malformed("name arena UTF-8"));
        }
        if data.name_sorted.as_slice().iter().any(|&i| i as usize >= k) {
            return Err(SnapError::Malformed("name sort permutation"));
        }
    }

    Ok(Document::from_storage(data, policy, ids, refs, region.is_mapped()))
}

fn deep_verify_sections(file: &[u8], p: &Parsed) -> Result<(), SnapError> {
    for tag in 1..=TAG_ID_POLICY {
        if let Some(s) = &p.sections[tag as usize] {
            if checksum(&file[s.off..s.off + s.len]) != s.sum {
                return Err(SnapError::ChecksumMismatch(tag_name(tag)));
            }
        }
    }
    Ok(())
}

/// What the derived `firstchild`/`nextsibling` rely on, in one preorder
/// scan over the open intervals (`se` is already checked to hold valid
/// interval ends): every non-root `i` has `p = parent[i]` with `p < i`
/// and `se[i] ≤ se[p]`, and `p` is the innermost open interval holding
/// `i`, so the interval hop from `p + 1` visits exactly `p`'s children;
/// and `prev_sibling[i]` is the node that hop visits before `i`.
fn verify_nesting(parent: &[u32], prev_sibling: &[u32], se: &[u32]) -> Result<(), SnapError> {
    if parent[0] != NONE || prev_sibling[0] != NONE {
        return Err(SnapError::Malformed("root links"));
    }
    // The open intervals, outermost first, each with its last child so far.
    let mut open: Vec<(u32, u32)> = vec![(0, NONE)];
    for i in 1..se.len() as u32 {
        while open.last().is_some_and(|&(a, _)| se[a as usize] <= i) {
            open.pop();
        }
        // The root's interval is [0, n), so it is never closed here.
        let (p, last) = open.last_mut().expect("the root interval stays open");
        let ix = i as usize;
        if parent[ix] != *p || se[ix] > se[*p as usize] {
            return Err(SnapError::Malformed("parent interval nesting"));
        }
        if prev_sibling[ix] != *last {
            return Err(SnapError::Malformed("prev_sibling chain"));
        }
        *last = i;
        open.push((i, NONE));
    }
    Ok(())
}

#[allow(clippy::too_many_lines)]
fn deep_verify_semantics(doc: &Document, h: &Header) -> Result<(), SnapError> {
    let d = &doc.data;
    let n = h.nodes;
    let text_len = d.text.len();

    // Kinds: decodable; node 0 (and only node 0) is the root.
    let kinds = d.kind.as_slice();
    for (i, &k) in kinds.iter().enumerate() {
        match NodeKind::from_u8(k) {
            None => return Err(SnapError::Malformed("node kind byte")),
            Some(NodeKind::Root) if i != 0 => {
                return Err(SnapError::Malformed("root kind at non-zero id"))
            }
            _ => {}
        }
    }
    if kinds[0] != NodeKind::Root as u8 {
        return Err(SnapError::Malformed("node 0 is not the root"));
    }

    // Links: every entry NONE or < n; subtree_end a valid interval end.
    let in_range = |arr: &Arr<u32>| arr.as_slice().iter().all(|&v| v == NONE || v < n);
    if !in_range(&d.parent) || !in_range(&d.prev_sibling) {
        return Err(SnapError::Malformed("link out of range"));
    }
    let se = d.subtree_end.as_slice();
    for (i, &e) in se.iter().enumerate() {
        if e <= i as u32 || e > n {
            return Err(SnapError::Malformed("subtree interval"));
        }
    }
    if se[0] != n {
        return Err(SnapError::Malformed("root subtree interval"));
    }
    verify_nesting(d.parent.as_slice(), d.prev_sibling.as_slice(), se)?;

    // Name ids must index the name table.
    let k = h.names;
    if d.name.as_slice().iter().any(|&v| v != NONE && v >= k) {
        return Err(SnapError::Malformed("name id out of range"));
    }

    // Value spans: in bounds of the text arena and valid UTF-8.
    let offs = d.value_off.as_slice();
    let lens = d.value_len.as_slice();
    let text = d.text.as_slice();
    for i in 0..n as usize {
        if offs[i] == NONE {
            continue;
        }
        let lo = offs[i] as usize;
        let hi = lo
            .checked_add(lens[i] as usize)
            .filter(|&hi| hi <= text_len)
            .ok_or(SnapError::Malformed("value span out of bounds"))?;
        if std::str::from_utf8(&text[lo..hi]).is_err() {
            return Err(SnapError::Malformed("value span UTF-8"));
        }
    }

    // Special mask mirrors the kind bytes (padding bits clear).
    if d.special.as_slice() != special_mask(kinds) {
        return Err(SnapError::Malformed("special mask"));
    }

    // ID table: attribute keys in range, strictly sorted (unique) by key
    // bytes; owners in range.
    let idt = doc.id_table();
    let keys = idt.key_node.as_slice();
    if keys.iter().any(|&a| a >= n) || idt.owner.as_slice().iter().any(|&o| o >= n) {
        return Err(SnapError::Malformed("id table out of range"));
    }
    for w in keys.windows(2) {
        let a = doc.value(crate::NodeId(w[0])).unwrap_or("");
        let b = doc.value(crate::NodeId(w[1])).unwrap_or("");
        if a.as_bytes() >= b.as_bytes() {
            return Err(SnapError::Malformed("id table sort order"));
        }
    }

    // Ref table: sorted pairs, nodes in range.
    let rt = doc.ref_table();
    let from = rt.from.as_slice();
    let to = rt.to.as_slice();
    if from.iter().chain(to.iter()).any(|&v| v >= n) {
        return Err(SnapError::Malformed("ref table out of range"));
    }
    for i in 1..from.len() {
        if (from[i - 1], to[i - 1]) > (from[i], to[i]) {
            return Err(SnapError::Malformed("ref table sort order"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{doc_bookstore, doc_figure8};

    fn tmp(name: &str) -> crate::temp::TempPath {
        crate::temp::TempPath::new(&format!("snap_unit_{name}"))
    }

    #[test]
    fn checksum_diffuses_and_is_stable() {
        let a = checksum(b"hello world");
        assert_eq!(a, checksum(b"hello world"));
        assert_ne!(a, checksum(b"hello worle"));
        assert_ne!(checksum(b""), checksum(b"\0"));
        assert_ne!(checksum(&[0u8; 32]), checksum(&[0u8; 33]));
        let mut flipped = *b"hello world";
        flipped[0] ^= 1;
        assert_ne!(a, checksum(&flipped));
    }

    #[test]
    fn id_policy_roundtrip() {
        let p = IdPolicy {
            id_attributes: vec!["id".into(), "xml:id".into()],
            scoped_id_attributes: vec![("book".into(), "isbn".into())],
        };
        let enc = encode_id_policy(&p);
        assert_eq!(decode_id_policy(&enc).unwrap(), p);
        assert!(decode_id_policy(&enc[..enc.len() - 1]).is_err());
        assert!(decode_id_policy(&[0xff; 4]).is_err());
    }

    #[test]
    fn write_load_roundtrip_preserves_everything() {
        for (i, doc) in [doc_figure8(), doc_bookstore()].iter().enumerate() {
            let path = tmp(&format!("rt{i}.gksnap"));
            let info_w = write(doc, &path).unwrap();
            assert_eq!(info_w.nodes as usize, doc.len());
            // Deep verification accepts our own writer's output.
            verify(&path).unwrap();
            let loaded = load(&path).unwrap();
            assert_eq!(loaded.len(), doc.len());
            for id in doc.all_nodes() {
                assert_eq!(loaded.kind(id), doc.kind(id));
                assert_eq!(loaded.name(id), doc.name(id));
                assert_eq!(loaded.value(id), doc.value(id));
                assert_eq!(loaded.parent(id), doc.parent(id));
                assert_eq!(loaded.first_child(id), doc.first_child(id));
                assert_eq!(loaded.next_sibling(id), doc.next_sibling(id));
                assert_eq!(loaded.prev_sibling(id), doc.prev_sibling(id));
                assert_eq!(loaded.subtree_end(id), doc.subtree_end(id));
                assert_eq!(loaded.string_value(id), doc.string_value(id));
            }
            assert_eq!(loaded.serialize(loaded.root()), doc.serialize(doc.root()));
            assert_eq!(
                loaded.refs().iter().collect::<Vec<_>>(),
                doc.refs().iter().collect::<Vec<_>>()
            );
            assert_eq!(loaded.parent_ids(), doc.parent_ids());
            assert_eq!(loaded.prev_sibling_ids(), doc.prev_sibling_ids());
            assert_eq!(loaded.subtree_ends(), doc.subtree_ends());
            assert_eq!(loaded.special_words(), doc.special_words());
        }
    }

    #[test]
    fn streamed_write_matches_file_and_declared_length() {
        let doc = doc_bookstore();
        let path = tmp("stream.gksnap");
        let info = write(&doc, &path).unwrap();
        let mut streamed = Vec::new();
        let info2 = write_to(&doc, &mut streamed).unwrap();
        assert_eq!(info.file_bytes, info2.file_bytes);
        assert_eq!(streamed.len() as u64, info.file_bytes);
        assert_eq!(std::fs::read(&path).unwrap(), streamed);
        verify(&path).unwrap();
    }

    #[test]
    fn load_without_mmap_matches() {
        let doc = doc_figure8();
        let path = tmp("nommap.gksnap");
        write(&doc, &path).unwrap();
        let opts = OpenOptions { mmap: false, verify: true };
        let loaded = load_with(&path, &opts).unwrap();
        assert!(!loaded.is_mapped());
        assert_eq!(loaded.serialize(loaded.root()), doc.serialize(doc.root()));
    }

    #[test]
    fn info_reports_counts() {
        let doc = doc_figure8();
        let path = tmp("info.gksnap");
        write(&doc, &path).unwrap();
        let i = info(&path).unwrap();
        assert_eq!(i.nodes as usize, doc.len());
        assert_eq!(i.version, FORMAT_VERSION);
        assert!(i.file_bytes > 0);
        // Seventeen sections; the retired tags 6, 7 (version 2's derived
        // links) and 10 (version 1's post-order rank) are gone.
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(read_u32(&bytes, 12), 17);
        let sections = parse_header(&bytes).unwrap().sections;
        assert!([6, 7, 10].iter().all(|&tag| sections[tag].is_none()));
    }
}
