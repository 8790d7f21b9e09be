//! Snapshot corruption suite: every damaged-file shape must fail with a
//! clean, typed [`SnapError`] — never a panic, never UB, never a
//! wrong-but-successful open. Covers the required cases (truncation,
//! flipped stored checksum, wrong magic, future version, out-of-bounds
//! section offsets), payload damage under deep verification, damaged
//! subtree intervals under a quick open (wrong answers allowed, a panic
//! or a hang not), and the `xpq --snapshot` CLI surface (nonzero exit,
//! diagnostic on stderr).

use std::process::Command;
use std::sync::mpsc;
use std::time::Duration;

use gkp_xpath::axes::bulk;
use gkp_xpath::core::Context;
use gkp_xpath::syntax::Axis;
use gkp_xpath::xml::generate::doc_bookstore;
use gkp_xpath::xml::snap::{self, SnapError, FORMAT_VERSION};
use gkp_xpath::xml::temp::TempPath;
use gkp_xpath::{CompiledQuery, Document, NodeId, NodeSet};

/// Byte offsets from the header layout (`snap` module docs).
const OFF_VERSION: usize = 8;
const OFF_HEADER_CHECKSUM: usize = 40;
const HEADER_LEN: usize = 48;
const DIR_ENTRY_LEN: usize = 32;
const ENTRY_OFFSET: usize = 8;
const ENTRY_LEN: usize = 16;
const ENTRY_CHECKSUM: usize = 24;
/// Section tags (`snap` module docs).
const TAG_PARENT: u32 = 5;
const TAG_PREV_SIBLING: u32 = 8;
const TAG_SUBTREE_END: u32 = 9;
const TAG_SPECIAL: u32 = 11;

/// A pristine snapshot of the bookstore document as raw bytes.
fn pristine() -> Vec<u8> {
    let path = temp("pristine");
    snap::write(&doc_bookstore(), &path).unwrap();
    std::fs::read(&path).unwrap()
}

fn temp(tag: &str) -> TempPath {
    TempPath::new(&format!("snapcorrupt_{tag}.gksnap"))
}

/// Write `bytes` to a temp snapshot, quick-open it, clean up, and return
/// the result.
fn open_bytes(tag: &str, bytes: &[u8]) -> Result<(), SnapError> {
    let path = temp(tag);
    std::fs::write(&path, bytes).unwrap();
    snap::load(&path).map(|_| ())
}

/// Re-seal the header checksum after tampering with header or directory
/// fields, so validation proceeds past it to the targeted check.
fn reseal(bytes: &mut [u8]) {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let dir_end = HEADER_LEN + count * DIR_ENTRY_LEN;
    let mut covered = Vec::with_capacity(40 + count * DIR_ENTRY_LEN);
    covered.extend_from_slice(&bytes[0..40]);
    covered.extend_from_slice(&bytes[HEADER_LEN..dir_end]);
    let sum = snap::checksum(&covered);
    bytes[OFF_HEADER_CHECKSUM..OFF_HEADER_CHECKSUM + 8].copy_from_slice(&sum.to_le_bytes());
}

/// The directory entry, payload offset and payload length of section `tag`.
fn section(bytes: &[u8], tag: u32) -> (usize, usize, usize) {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let entry = (0..count)
        .map(|i| HEADER_LEN + i * DIR_ENTRY_LEN)
        .find(|&e| u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap()) == tag)
        .unwrap_or_else(|| panic!("section {tag} present"));
    let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    (entry, field(entry + ENTRY_OFFSET), field(entry + ENTRY_LEN))
}

/// Overwrite `u32` element `i` of section `tag`'s payload.
fn poke_u32(bytes: &mut [u8], tag: u32, i: usize, value: u32) {
    let (_, off, _) = section(bytes, tag);
    bytes[off + 4 * i..off + 4 * i + 4].copy_from_slice(&value.to_le_bytes());
}

/// Re-seal section `tag`'s stored checksum and then the header, so only
/// deep verification's semantic checks can see a payload edit.
fn reseal_section(bytes: &mut [u8], tag: u32) {
    let (entry, off, len) = section(bytes, tag);
    let sum = snap::checksum(&bytes[off..off + len]);
    bytes[entry + ENTRY_CHECKSUM..entry + ENTRY_CHECKSUM + 8].copy_from_slice(&sum.to_le_bytes());
    reseal(bytes);
}

#[test]
fn pristine_snapshot_opens_and_deep_verifies() {
    let path = temp("ok");
    let doc = doc_bookstore();
    snap::write(&doc, &path).unwrap();
    snap::verify(&path).unwrap();
    let loaded = snap::load(&path).unwrap();
    assert_eq!(loaded.len(), doc.len());
}

#[test]
fn truncated_files_fail_clean() {
    let good = pristine();
    // Every truncation point from an empty file up through a cut in the
    // last section: quick open must fail with a typed error (Truncated
    // when the total-length field disagrees; Io for the empty-read edge),
    // never panic.
    for keep in [0, 1, 16, 47, HEADER_LEN, good.len() / 2, good.len() - 1] {
        match open_bytes("trunc", &good[..keep]) {
            Err(SnapError::Truncated { expected, actual }) => {
                assert_eq!(actual, keep as u64, "truncated to {keep}");
                // Below a full header the reader can only promise the
                // header length; past it, the total-length field names
                // the real size.
                let want = if keep < HEADER_LEN { HEADER_LEN as u64 } else { good.len() as u64 };
                assert_eq!(expected, want, "truncated to {keep}");
            }
            Err(other) => panic!("truncated to {keep}: wrong error {other}"),
            Ok(()) => panic!("truncated to {keep}: opened successfully"),
        }
    }
}

#[test]
fn flipped_stored_checksum_fails_header_validation() {
    // The per-section checksums live in the directory, which the header
    // checksum covers: flipping a stored checksum byte must already fail
    // the quick open (this is what makes the deep-verify checksums
    // tamper-evident without an O(file) scan at open time).
    let mut bad = pristine();
    bad[HEADER_LEN + ENTRY_CHECKSUM] ^= 0x01;
    match open_bytes("flip_dirsum", &bad) {
        Err(SnapError::ChecksumMismatch(what)) => assert_eq!(what, "header/directory"),
        other => panic!("wrong outcome: {other:?}"),
    }
    // Same for a flip anywhere in the covered header fields.
    let mut bad = pristine();
    bad[24] ^= 0x40; // node count
    assert!(matches!(open_bytes("flip_nodes", &bad), Err(SnapError::ChecksumMismatch(_))));
}

#[test]
fn wrong_magic_fails() {
    let mut bad = pristine();
    bad[0] = b'X';
    assert!(matches!(open_bytes("magic", &bad), Err(SnapError::BadMagic)));
}

#[test]
fn future_version_fails() {
    // Version 1 stored the post-order rank and version 2 the first-child
    // and next-sibling links, which this build no longer reads: the bump
    // is strict in both directions.
    for version in [1, 2, FORMAT_VERSION + 1] {
        let mut bad = pristine();
        bad[OFF_VERSION..OFF_VERSION + 4].copy_from_slice(&version.to_le_bytes());
        reseal(&mut bad);
        match open_bytes("version", &bad) {
            Err(SnapError::UnsupportedVersion(v)) => assert_eq!(v, version),
            other => panic!("version {version}: wrong outcome: {other:?}"),
        }
    }
}

#[test]
fn out_of_bounds_section_offsets_fail() {
    let good = pristine();
    // Point the first section past the end of the file; re-seal so the
    // header checksum passes and the bounds check is what fires.
    let mut bad = good.clone();
    let at = HEADER_LEN + ENTRY_OFFSET;
    bad[at..at + 8].copy_from_slice(&(good.len() as u64).to_le_bytes());
    reseal(&mut bad);
    assert!(
        matches!(open_bytes("oob", &bad), Err(SnapError::SectionOutOfBounds(_))),
        "offset past EOF must be rejected"
    );
    // A misaligned offset is equally out of contract (mapped arrays
    // require natural alignment).
    let mut bad = good.clone();
    let old = u64::from_le_bytes(bad[at..at + 8].try_into().unwrap());
    bad[at..at + 8].copy_from_slice(&(old + 1).to_le_bytes());
    reseal(&mut bad);
    assert!(
        matches!(open_bytes("misaligned", &bad), Err(SnapError::SectionOutOfBounds(_))),
        "misaligned offset must be rejected"
    );
    // Length overflowing the file end.
    let mut bad = good;
    let at_len = HEADER_LEN + 16;
    bad[at_len..at_len + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    reseal(&mut bad);
    assert!(
        matches!(
            open_bytes("len_overflow", &bad),
            Err(SnapError::SectionOutOfBounds(_) | SnapError::Malformed(_))
        ),
        "overflowing length must be rejected"
    );
}

#[test]
fn payload_damage_is_caught_by_deep_verify() {
    // Flip one byte in the middle of the file body (outside header +
    // directory). The quick open is O(header) by design and may succeed;
    // deep verification must catch the damaged section checksum.
    let mut bad = pristine();
    let mid = bad.len() - 16;
    bad[mid] ^= 0xFF;
    let path = temp("payload");
    std::fs::write(&path, &bad).unwrap();
    match snap::verify(&path) {
        Err(SnapError::ChecksumMismatch(_) | SnapError::Malformed(_)) => {}
        other => panic!("deep verify must reject payload damage, got {other:?}"),
    }
}

#[test]
fn special_mask_damage_is_caught_by_deep_verify() {
    // Set the root's bit in the attribute/namespace mask and re-seal both
    // the section checksum and the header: only the semantic check that
    // the mask mirrors the kind bytes can catch it.
    let mut bad = pristine();
    let (_, off, _) = section(&bad, TAG_SPECIAL);
    bad[off] ^= 0x01;
    reseal_section(&mut bad, TAG_SPECIAL);
    let path = temp("special");
    std::fs::write(&path, &bad).unwrap();
    match snap::verify(&path) {
        Err(SnapError::Malformed(what)) => assert_eq!(what, "special mask"),
        other => panic!("deep verify must reject a damaged special mask, got {other:?}"),
    }
}

/// Deep verify checks what the derived child and sibling links rely on:
/// each parent link names the innermost interval holding the node, and
/// `PREV_SIBLING` follows the derived sibling runs. Every edit keeps the
/// links in range and re-seals the checksums, so only those semantic
/// checks can catch it.
#[test]
fn broken_nesting_is_caught_by_deep_verify() {
    let doc = doc_bookstore();
    let n = doc.len();
    // A node nested two levels deep, and the first node with a left
    // neighbour.
    let deep = doc.all_nodes().find(|&x| doc.depth(x) >= 2).expect("a nested node");
    let second = doc.all_nodes().find(|&x| doc.prev_sibling(x).is_some()).expect("siblings");
    let cases: [(&str, u32, usize, u32, &str); 4] = [
        ("parent_after", TAG_PARENT, deep.index(), n as u32 - 1, "parent interval nesting"),
        ("parent_outer", TAG_PARENT, deep.index(), 0, "parent interval nesting"),
        ("prev_none", TAG_PREV_SIBLING, second.index(), u32::MAX, "prev_sibling chain"),
        ("prev_self", TAG_PREV_SIBLING, second.index(), second.0, "prev_sibling chain"),
    ];
    for (tag, section_tag, i, value, want) in cases {
        let mut bad = pristine();
        poke_u32(&mut bad, section_tag, i, value);
        reseal_section(&mut bad, section_tag);
        let path = temp(tag);
        std::fs::write(&path, &bad).unwrap();
        match snap::verify(&path) {
            Err(SnapError::Malformed(what)) => assert_eq!(what, want, "{tag}"),
            other => panic!("{tag}: deep verify must reject broken nesting, got {other:?}"),
        }
    }
}

/// Every tree walk over a quick-opened document, through each route
/// that reads the link columns: the per-node accessors, the bulk kernel
/// on the whole node set, on every single node and on pairs of nodes,
/// and compiled queries from the root and from every node, materialized
/// and lazy.
fn walk_everything(doc: &Document) {
    let n = doc.len() as u32;
    for x in doc.all_nodes() {
        std::hint::black_box(doc.children(x).count());
        std::hint::black_box(doc.following_siblings(x).count());
        std::hint::black_box(doc.depth(x));
        let mut s = doc.first_child(x);
        while let Some(c) = s {
            s = doc.next_sibling(c);
        }
        let mut s = doc.prev_sibling(x);
        while let Some(c) = s {
            s = doc.prev_sibling(c);
        }
    }
    let mut inputs: Vec<NodeSet> = vec![doc.all_nodes().collect()];
    for x in 0..n {
        inputs.push(NodeSet::singleton(NodeId(x)));
        let y = (x + n / 2) % n;
        inputs.push(NodeSet::from_unsorted(vec![NodeId(x), NodeId(y)]));
    }
    for axis in [
        Axis::Child,
        Axis::Attribute,
        Axis::Parent,
        Axis::FollowingSibling,
        Axis::PrecedingSibling,
        Axis::Ancestor,
        Axis::AncestorOrSelf,
        Axis::Descendant,
        Axis::Following,
        Axis::Preceding,
    ] {
        for set in &inputs {
            std::hint::black_box(bulk::axis_set(doc, axis, set));
        }
    }
    for q in [
        "child::*",
        "following-sibling::*",
        "preceding-sibling::*",
        "ancestor::*",
        "preceding::*",
        "..",
        "//*",
        "//*/child::node()",
        "//node()/@*",
        "string(/*)",
    ] {
        let q = CompiledQuery::compile(q).unwrap();
        let _ = std::hint::black_box((q.select(doc), q.first(doc), q.exists(doc)));
        for x in doc.all_nodes() {
            let at = || Context::new(x, 1, 1);
            let _ = std::hint::black_box((q.select_at(doc, at()), q.first_at(doc, at())));
        }
    }
}

/// Overwrite every element of section `tag` of a pristine snapshot with
/// `garbage(i)`, quick-open it, and run [`walk_everything`] on it: the
/// walks may answer wrongly, but each must end, in bounds, within 60 s.
fn walks_end_on_damaged(tag: u32, name: &str, garbage: fn(u32) -> u32) {
    let mut bad = pristine();
    let nodes = section(&bad, tag).2 / 4;
    for i in 0..nodes {
        poke_u32(&mut bad, tag, i, garbage(i as u32));
    }
    let path = temp(name);
    std::fs::write(&path, &bad).unwrap();
    let doc = snap::load(&path).unwrap_or_else(|e| panic!("{name}: quick open failed: {e}"));
    let (done, wait) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        walk_everything(&doc);
        let _ = done.send(());
    });
    match wait.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => worker.join().unwrap(),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let err = worker.join().expect_err("the worker only hangs up by panicking");
            panic!("{name}: a walk panicked: {err:?}");
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{name}: a walk did not end in 60 s"),
    }
}

/// A payload-damaged `SUBTREE_END` column on a quick open: the derived
/// walks may answer wrongly, but each must end, in bounds.
#[test]
fn damaged_subtree_ends_neither_panic_nor_hang() {
    // What node `i`'s subtree end is overwritten with. An even node's
    // interval reaches past the document, so the walks from it meet its
    // odd successor's self-loop or backward hop.
    walks_end_on_damaged(TAG_SUBTREE_END, "zeros", |_| 0);
    walks_end_on_damaged(TAG_SUBTREE_END, "max", |_| u32::MAX);
    walks_end_on_damaged(TAG_SUBTREE_END, "self_loop", |i| if i % 2 == 1 { i } else { u32::MAX });
    walks_end_on_damaged(
        TAG_SUBTREE_END,
        "backwards",
        |i| if i % 2 == 1 { i / 2 } else { u32::MAX },
    );
}

/// Payload-damaged backward links on a quick open: a `PARENT` or
/// `PREV_SIBLING` link that does not point to an earlier node ends its
/// chain, so self links, two-node cycles and forward links all end.
#[test]
fn damaged_backward_links_neither_panic_nor_hang() {
    for (tag, name) in [(TAG_PARENT, "parent"), (TAG_PREV_SIBLING, "prev_sibling")] {
        walks_end_on_damaged(tag, &format!("{name}_self"), |i| i);
        // Nodes 2k and 2k+1 name each other: the odd node's link is a
        // valid backward step into the even node's forward one.
        walks_end_on_damaged(tag, &format!("{name}_cycle"), |i| i ^ 1);
        walks_end_on_damaged(tag, &format!("{name}_forward"), |i| i + 1);
        walks_end_on_damaged(tag, &format!("{name}_zeros"), |_| 0);
    }
}

/// `xpq --snapshot <corrupt>` and `xpq snapshot verify <corrupt>` exit
/// nonzero with a diagnostic — the CLI contract for damaged stores.
#[test]
fn xpq_rejects_corrupt_snapshots() {
    let xpq = env!("CARGO_BIN_EXE_xpq");
    let mut bad = pristine();
    bad[0] = b'X';
    let path = temp("cli");
    std::fs::write(&path, &bad).unwrap();

    let out =
        Command::new(xpq).args(["//*", "--snapshot", path.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success(), "corrupt --snapshot must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("snapshot error"), "diagnostic expected, got: {stderr}");

    let out =
        Command::new(xpq).args(["snapshot", "verify", path.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success(), "snapshot verify must exit nonzero on damage");

    // Truncated file through the CLI as well.
    let good = pristine();
    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    let out =
        Command::new(xpq).args(["//*", "--snapshot", path.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success(), "truncated --snapshot must exit nonzero");
}

/// A healthy snapshot through the CLI: `--snapshot` output matches the
/// XML parse path query-for-query.
#[test]
fn xpq_snapshot_output_matches_parse_path() {
    let xpq = env!("CARGO_BIN_EXE_xpq");
    let doc = doc_bookstore();
    let xml_path = TempPath::new("snapcli.xml");
    std::fs::write(&xml_path, doc.serialize(doc.root())).unwrap();
    let snap_path = temp("cli_ok");

    let out = Command::new(xpq)
        .args(["snapshot", "build", xml_path.to_str().unwrap(), snap_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    for q in [
        "//book/title",
        "count(//*)",
        "//@*",
        "string(//book[1])",
        "/*/*",
        "//book/following-sibling::*",
        "//title/preceding-sibling::*",
    ] {
        let from_xml = Command::new(xpq).args([q, xml_path.to_str().unwrap()]).output().unwrap();
        let from_snap = Command::new(xpq)
            .args([q, "--snapshot", snap_path.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(from_xml.status.success() && from_snap.status.success(), "{q}");
        assert_eq!(from_xml.stdout, from_snap.stdout, "{q}: snapshot diverges from parse");
    }
}
