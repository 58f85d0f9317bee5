//! The indexing ban in byte-parsing modules and the cast audit in the
//! codec modules are clippy lints scoped by a `#![deny(..)]` line at
//! the top of each module (they replaced xtask rules L1 and L4). A
//! module that loses its line silently leaves the scope, so this test
//! pins the list: every file below must still carry its attribute.

// Tests assert by panicking; the workspace panic-freedom deny-set
// (root Cargo.toml) is aimed at library code.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::Path;

/// Byte-parsing modules. Membership criterion: the file interprets
/// *raw disk bytes* (or raw network bytes — the tsnet wire decoder).
/// `index.rs` is deliberately absent — its decode path is already
/// get()-based and the rest is in-memory model math over slices whose
/// invariants are established at decode time.
const UNTRUSTED_INPUT_FILES: &[&str] = &[
    "crates/tsfile/src/reader.rs",
    "crates/tsfile/src/page.rs",
    "crates/tsfile/src/varint.rs",
    "crates/tsfile/src/mods.rs",
    "crates/tsfile/src/statistics.rs",
    // bufpool hands out the buffers every raw disk/network byte lands
    // in; a slip here corrupts what the parsers above read.
    "crates/tsfile/src/bufpool.rs",
    "crates/tsfile/src/encoding/bitio.rs",
    "crates/tsfile/src/encoding/gorilla.rs",
    "crates/tsfile/src/encoding/plain.rs",
    "crates/tsfile/src/encoding/ts2diff.rs",
    // The retained scalar oracles parse the same raw bytes the
    // production kernels do.
    "crates/tsfile/src/encoding/reference.rs",
    // The catalog log and shared shard WAL are replayed from raw disk
    // bytes on every open, including torn tails after a crash.
    "crates/tskv/src/catalog.rs",
    "crates/tskv/src/shard_wal.rs",
    "crates/tsnet/src/wire.rs",
];

/// Codec layers: every numeric conversion goes through `tsfile::cast`,
/// the one module that writes a bare `as` (and documents each).
const CODEC_FILES: &[&str] = &[
    "crates/tsfile/src/varint.rs",
    "crates/tsfile/src/encoding/bitio.rs",
    "crates/tsfile/src/encoding/gorilla.rs",
    "crates/tsfile/src/encoding/plain.rs",
    "crates/tsfile/src/encoding/ts2diff.rs",
    "crates/tsfile/src/encoding/reference.rs",
];

/// Files in `files` with no line that is exactly `attr`.
fn missing(root: &Path, files: &[&str], attr: &str) -> Vec<String> {
    files
        .iter()
        .filter(|rel| {
            let src = std::fs::read_to_string(root.join(rel))
                .unwrap_or_else(|e| panic!("read {rel}: {e}"));
            !src.lines().any(|l| l == attr)
        })
        .map(|rel| rel.to_string())
        .collect()
}

#[test]
fn listed_modules_carry_their_clippy_deny_lines() {
    let root = xtask::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
    let no_indexing = missing(
        &root,
        UNTRUSTED_INPUT_FILES,
        "#![deny(clippy::indexing_slicing)]",
    );
    assert!(
        no_indexing.is_empty(),
        "byte-parsing modules without #![deny(clippy::indexing_slicing)]: {no_indexing:?}"
    );
    let no_casts = missing(&root, CODEC_FILES, "#![deny(clippy::as_conversions)]");
    assert!(
        no_casts.is_empty(),
        "codec modules without #![deny(clippy::as_conversions)]: {no_casts:?}"
    );
}
