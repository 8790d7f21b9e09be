//! Snapshot corruption suite: every damaged-file shape must fail with a
//! clean, typed [`SnapError`] — never a panic, never UB, never a
//! wrong-but-successful open. Covers the required cases (truncation,
//! flipped stored checksum, wrong magic, future version, out-of-bounds
//! section offsets), payload damage under deep verification, and the
//! `xpq --snapshot` CLI surface (nonzero exit, diagnostic on stderr).

use std::process::Command;

use gkp_xpath::xml::generate::doc_bookstore;
use gkp_xpath::xml::snap::{self, SnapError, FORMAT_VERSION};
use gkp_xpath::xml::temp::TempPath;

/// Byte offsets from the version-1 header layout (`snap` module docs).
const OFF_VERSION: usize = 8;
const OFF_HEADER_CHECKSUM: usize = 40;
const HEADER_LEN: usize = 48;
const DIR_ENTRY_LEN: usize = 32;
const ENTRY_OFFSET: usize = 8;
const ENTRY_CHECKSUM: usize = 24;

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
    let mut bad = pristine();
    bad[OFF_VERSION..OFF_VERSION + 4].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    reseal(&mut bad);
    match open_bytes("version", &bad) {
        Err(SnapError::UnsupportedVersion(v)) => assert_eq!(v, FORMAT_VERSION + 1),
        other => panic!("wrong outcome: {other:?}"),
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

    for q in ["//book/title", "count(//*)", "//@*", "string(//book[1])"] {
        let from_xml = Command::new(xpq).args([q, xml_path.to_str().unwrap()]).output().unwrap();
        let from_snap = Command::new(xpq)
            .args([q, "--snapshot", snap_path.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(from_xml.status.success() && from_snap.status.success(), "{q}");
        assert_eq!(from_xml.stdout, from_snap.stdout, "{q}: snapshot diverges from parse");
    }
}
