//! The lint scope no compiler pins by itself. A per-module clippy
//! attribute, a checked lock or an `#[allow]` can each be deleted or
//! added without anything failing to compile, so this test lists them:
//!
//! - the byte-parsing modules carry `#![deny(clippy::indexing_slicing)]`
//!   and the codec modules `#![deny(clippy::as_conversions)]`;
//! - the files whose locks the lock discipline covers name no raw lock
//!   type, only `tsfile::lockcheck`'s checked ones;
//! - `clippy.toml`'s `disallowed-methods` (raw file I/O, unbounded
//!   waits) is the same in its three crates, and the files allowed to
//!   say `allow(clippy::disallowed_methods)` are exactly the listed ones;
//! - public read/decode entry points of the storage crates return
//!   `Result`/`Option` (or a named alias of one), so corrupt input has a
//!   channel other than a silently wrong value.
//!
//! See DESIGN §6.

// Tests assert by panicking; the workspace deny-set targets library code.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::Path;

/// Byte-parsing modules. Membership criterion: the file interprets
/// *raw disk bytes* (or raw network bytes — the tsnet wire decoder).
const UNTRUSTED_INPUT_FILES: &[&str] = &[
    "crates/tsfile/src/reader.rs",
    "crates/tsfile/src/page.rs",
    "crates/tsfile/src/varint.rs",
    "crates/tsfile/src/mods.rs",
    "crates/tsfile/src/statistics.rs",
    // bufpool hands out the buffers every raw disk/network byte lands
    // in; a slip here corrupts what the parsers above read.
    "crates/tsfile/src/bufpool.rs",
    "crates/tsfile/src/encoding/decimal.rs",
    "crates/tsfile/src/encoding/packed.rs",
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
    "crates/tsfile/src/encoding/decimal.rs",
    "crates/tsfile/src/encoding/packed.rs",
];

/// Where a guard must never reach file I/O, page decode or a pool
/// fan-out: the engine's shard map, the decoded-page cache, the
/// fragment table's prefix, the server's worker registry, and the code
/// that runs beside them. Their locks are checked ones.
const CHECKED_LOCK_FILES: &[&str] = &[
    "crates/tskv/src/engine/mod.rs",
    "crates/tskv/src/engine/compact.rs",
    "crates/tskv/src/engine/disk.rs",
    "crates/tskv/src/engine/facade.rs",
    "crates/tskv/src/engine/files.rs",
    "crates/tskv/src/engine/flush.rs",
    "crates/tskv/src/engine/open.rs",
    "crates/tskv/src/engine/write.rs",
    "crates/tskv/src/scheduler.rs",
    "crates/tskv/src/snapshot.rs",
    "crates/tskv/src/cache.rs",
    "crates/tskv/src/compaction/execute.rs",
    "crates/tskv/src/pool.rs",
    "crates/m4/src/lsm/table.rs",
    "crates/tsnet/src/server.rs",
    "crates/tsnet/src/client.rs",
];

/// The crates whose `clippy.toml` disallows raw file I/O and unbounded
/// waits.
const CLIPPY_TOML_CRATES: &[&str] = &["crates/tskv", "crates/m4", "crates/tsnet"];

/// The files of those crates that may say
/// `allow(clippy::disallowed_methods)`, each giving its reason there.
const RAW_IO_FILES: &[&str] = &[
    // Test builds only (`cfg_attr(test, ..)`): fixtures make, corrupt
    // and remove their own files.
    "crates/tskv/src/lib.rs",
    "crates/m4/src/lib.rs",
    "crates/tsnet/src/lib.rs",
    // The engine's one module that touches the disk; each of its
    // functions runs the lock check before its raw call.
    "crates/tskv/src/engine/disk.rs",
    // Durability writers, under the shard lock on purpose.
    "crates/tskv/src/shard_wal.rs",
    "crates/tskv/src/catalog.rs",
    // Joins of threads the caller has just stopped.
    "crates/tskv/src/scheduler.rs",
    "crates/tsnet/src/server.rs",
    "crates/tsnet/src/sub.rs",
];

/// The read layers right above the byte parsers, whose public
/// read/decode entry points must be fallible too.
const READ_LAYER_FILES: &[&str] = &[
    "crates/tsfile/src/format.rs",
    "crates/tskv/src/chunk.rs",
    "crates/tskv/src/snapshot.rs",
    "crates/tskv/src/readers/plan.rs",
    "crates/tskv/src/compaction/execute.rs",
];

/// Name prefixes of a read/decode entry point.
const FALLIBLE_PREFIXES: &[&str] = &[
    "read", "decode", "open", "parse", "load", "recover", "replay", "scan",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn source(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// `source(rel)` up to its test module.
fn shipping_source(rel: &str) -> String {
    let src = source(rel);
    match src.find("\n#[cfg(test)]\nmod ") {
        Some(end) => src[..end].to_string(),
        None => src,
    }
}

/// Every `.rs` file under `dir`, workspace-relative.
fn rust_files(dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root()).unwrap();
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

/// The files in `files` with no line that is exactly `attr`.
fn missing<'a>(files: &[&'a str], attr: &str) -> Vec<&'a str> {
    let lacks = |rel: &&str| !source(rel).lines().any(|l| l == attr);
    files.iter().copied().filter(lacks).collect()
}

#[test]
fn listed_modules_carry_their_clippy_deny_lines() {
    let no_indexing = missing(UNTRUSTED_INPUT_FILES, "#![deny(clippy::indexing_slicing)]");
    assert!(
        no_indexing.is_empty(),
        "byte-parsing modules without #![deny(clippy::indexing_slicing)]: {no_indexing:?}"
    );
    let no_casts = missing(CODEC_FILES, "#![deny(clippy::as_conversions)]");
    assert!(
        no_casts.is_empty(),
        "codec modules without #![deny(clippy::as_conversions)]: {no_casts:?}"
    );
}

#[test]
fn checked_lock_files_name_no_raw_lock_type() {
    let raw = |l: &str| {
        l.contains("parking_lot")
            || l.contains("RefCell")
            || l.contains("Condvar")
            || (l.contains("std::sync") && (l.contains("Mutex") || l.contains("RwLock")))
    };
    let mut found = Vec::new();
    for rel in CHECKED_LOCK_FILES {
        for (i, l) in source(rel).lines().enumerate().filter(|(_, l)| raw(l)) {
            found.push(format!("{rel}:{}: {}", i + 1, l.trim()));
        }
    }
    assert!(
        found.is_empty(),
        "raw lock types where the locks must be tsfile::lockcheck's: {found:#?}"
    );
}

#[test]
fn raw_io_is_allowed_in_the_listed_files_only() {
    let toml = |krate: &str| source(&format!("{krate}/clippy.toml"));
    let first = toml(CLIPPY_TOML_CRATES[0]);
    assert!(first.contains("\"std::fs::File::open\""), "{first}");
    for krate in CLIPPY_TOML_CRATES {
        assert_eq!(toml(krate), first, "{krate}/clippy.toml differs");
    }

    let mut files = Vec::new();
    for krate in CLIPPY_TOML_CRATES {
        rust_files(&root().join(krate).join("src"), &mut files);
    }
    let mut allowed: Vec<String> = files
        .into_iter()
        .filter(|rel| source(rel).contains("clippy::disallowed_methods"))
        .collect();
    allowed.sort();
    let mut listed: Vec<&str> = RAW_IO_FILES.to_vec();
    listed.sort_unstable();
    assert_eq!(allowed, listed, "files allowing clippy::disallowed_methods");

    for lib in RAW_IO_FILES.iter().filter(|f| f.ends_with("/lib.rs")) {
        let src = source(lib);
        for line in src
            .lines()
            .filter(|l| l.contains("clippy::disallowed_methods"))
        {
            assert!(
                line.starts_with("#![cfg_attr(test, "),
                "{lib}: only test builds may allow raw I/O crate-wide: {line}"
            );
        }
    }
}

/// Aliases of `Result`/`Option` declared in `src`.
fn fallible_aliases(src: &str) -> Vec<String> {
    let decl = |l: &str| {
        let rest = l.trim().strip_prefix("pub type ")?;
        let (name, ty) = rest.split_once('=')?;
        let ty = ty.trim();
        let fallible = ["Result<", "Option<", "std::result::Result<"];
        fallible.iter().any(|p| ty.starts_with(p)).then(|| {
            let name = name.split('<').next().unwrap_or(name);
            name.trim().to_string()
        })
    };
    src.lines().filter_map(decl).collect()
}

/// The public read/decode functions of `src` that do not return
/// `Result`/`Option`, an alias of one, or a lazy wrapper of one
/// (`impl Iterator<Item = Result<..>>`).
fn infallible_entry_points(src: &str, aliases: &[String]) -> Vec<String> {
    let lines: Vec<&str> = src.lines().collect();
    let mut found = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(rest) = line.trim_start().strip_prefix("pub fn ") else {
            continue;
        };
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !FALLIBLE_PREFIXES.iter().any(|p| name.starts_with(p)) {
            continue;
        }
        // The signature runs to its body or `where` clause.
        let mut sig = String::new();
        for l in &lines[i..] {
            sig.push_str(l.trim());
            sig.push(' ');
            if l.contains('{') || l.trim_end().ends_with(';') || l.trim() == "where" {
                break;
            }
        }
        let sig = sig.split(" where").next().unwrap_or(&sig);
        let ret = sig
            .rsplit_once("->")
            .map(|(_, r)| r.trim_end_matches(['{', ' ']).trim());
        let head = ret.map(|r| {
            let r = r.trim_start_matches(['&', '\'']).trim_start_matches("mut ");
            let path: String = r
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == ':')
                .collect();
            path.rsplit("::").next().unwrap_or("").to_string()
        });
        let lazy_fallible = |r: &str| r.contains("Result<") || r.contains("Option<");
        let ok = match (head.as_deref(), ret) {
            (Some("Result" | "Option"), _) => true,
            (Some("impl" | "Box"), Some(r)) => lazy_fallible(r),
            (Some(h), _) => aliases.iter().any(|a| a == h),
            (None, _) => false,
        };
        if !ok {
            found.push(format!("{name}: returns {}", ret.unwrap_or("nothing")));
        }
    }
    found
}

#[test]
fn read_and_decode_entry_points_are_fallible() {
    let files = UNTRUSTED_INPUT_FILES.iter().chain(READ_LAYER_FILES);
    let sources: Vec<(&str, String)> = files.map(|f| (*f, shipping_source(f))).collect();
    let aliases: Vec<String> = sources
        .iter()
        .flat_map(|(_, s)| fallible_aliases(s))
        .collect();
    let mut found = Vec::new();
    for (rel, src) in &sources {
        for bad in infallible_entry_points(src, &aliases) {
            found.push(format!("{rel}: {bad}"));
        }
    }
    assert!(
        found.is_empty(),
        "public read/decode entry points that cannot report corrupt input: {found:#?}"
    );
}

#[test]
fn the_fallibility_check_judges_the_resolved_head() {
    let src = "pub type DecodeResult = Result<Vec<u64>, Corrupt>;\n\
               pub fn decode_frames(buf: &[u8]) -> DecodeResult {\n\
               pub fn read_all_rows(buf: &[u8]) -> Vec<Result<u64, Corrupt>> {\n\
               pub fn decode_frame(buf: &[u8]) -> Vec<u32> {\n\
               pub fn scan_rows(&self) -> impl Iterator<Item = Result<u8, E>> + '_ {\n\
               pub fn open_log(p: &Path) -> crate::Result<Self> {\n\
               pub fn load_all(&self) {\n\
               pub fn len(&self) -> usize {\n";
    let aliases = fallible_aliases(src);
    assert_eq!(aliases, ["DecodeResult"]);
    let found = infallible_entry_points(src, &aliases);
    assert_eq!(
        found,
        [
            "read_all_rows: returns Vec<Result<u64, Corrupt>>",
            "decode_frame: returns Vec<u32>",
            "load_all: returns nothing",
        ]
    );
}
