//! Store inspector: a debugging tool that dumps the physical layout of
//! a tskv store — catalog, shards, files and their footer bytes, chunks,
//! versions, statistics, the form each chunk (one page) stores each
//! column in (timestamps constant, stream or packed; values stream,
//! packed or decimal, and a decimal block's frame: reference or delta)
//! and pending deletes —
//! using only the public tsfile API plus read-only parsing of the
//! store's own files.
//!
//! ```text
//! cargo run --release --example store_inspect [store_dir]
//! ```
//!
//! Without an argument it builds a small demo store first.
//!
//! Layout walked (see tskv's engine docs): the root holds `SHARDS`
//! (the store's one shard count, pinned at creation: a shard is one
//! lock, one log and one directory), `catalog.log` (interned id ↔ name
//! map) and `shard-NNNN/` directories; each shard holds data files
//! `<fileno>.tsfile` — one per flush of the shard, with a run of chunks
//! for every series flushed into it (the footer's run directory says
//! whose is whose) — one delete log `s<id>.mods` per series a delete has
//! been logged for, and shared WAL segments `wal-NNNNNNNN.log`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use m4lsm::tsfile::encoding::decimal::Framing;
use m4lsm::tsfile::format::MAGIC;
use m4lsm::tsfile::page::{TsForm, ValueForm};
use m4lsm::tsfile::{page, ModsFile, TsFileReader};
use m4lsm::tskv::config::EngineConfig;
use m4lsm::tskv::TsKv;

fn build_demo(dir: &Path) -> Result<(), Box<dyn std::error::Error>> {
    use m4lsm::tsfile::types::Point;
    let kv = TsKv::open(
        dir,
        EngineConfig {
            points_per_chunk: 100,
            memtable_threshold: 300,
            write_shards: 4,
            ..Default::default()
        },
    )?;
    for t in 0..900i64 {
        kv.insert("demo.a", Point::new(t * 1000, (t % 7) as f64))?;
    }
    // Out-of-order rewrite + delete to make the dump interesting.
    for t in 200..400i64 {
        kv.insert("demo.a", Point::new(t * 1000, 99.0))?;
    }
    // A second series, so the shard routing shows, and a third that
    // lands in demo.a's shard (ids 0 and 4 of 4 shards): the final
    // flush_all seals the two into one file.
    for t in 0..400i64 {
        kv.insert("demo.b", Point::new(t * 500, (t % 3) as f64))?;
    }
    for name in ["demo.c", "demo.d"] {
        kv.create_series(name)?;
    }
    for t in 0..150i64 {
        kv.insert("demo.e", Point::new(t * 2000, (t % 5) as f64))?;
    }
    // A registered-but-cold series: costs a catalog entry and nothing
    // else — no directory, no files.
    kv.create_series("demo.cold")?;
    // A cumulative energy meter in kWh, read to 0.01: it rises five to
    // eight hundredths a sample, so its decimal blocks store the deltas
    // (two bits a value) where the other series' short ramps keep the
    // frame of reference. Not every chunk: one whose exponent pair,
    // chosen from a sample, fails a value the sample missed keeps the
    // frame of reference with that value raw.
    for t in 0..600i64 {
        kv.insert(
            "demo.kwh",
            Point::new(t * 1000, (t * 7 + t % 3) as f64 / 100.0),
        )?;
    }
    // One delete over two of demo.a's sealed runs: one entry in its one
    // log. The final flush covers its WAL record like any other, so
    // every shard's log ends up reset — `(0 bytes)` below.
    kv.delete("demo.a", 500_000, 600_000)?;
    kv.flush_all()?;
    Ok(())
}

/// Read the interned id → name map out of `catalog.log`. Read-only and
/// forgiving: a short or torn tail simply ends the scan, exactly like
/// the engine's own recovery (checksums are the engine's business; an
/// inspector just wants the names).
fn read_catalog(dir: &Path) -> BTreeMap<u32, String> {
    let mut out = BTreeMap::new();
    let Ok(bytes) = std::fs::read(dir.join("catalog.log")) else {
        return out;
    };
    let mut at = 0usize;
    while bytes.len() >= at + 6 {
        let id = u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
        let len = u16::from_le_bytes([bytes[at + 4], bytes[at + 5]]) as usize;
        let end = at + 6 + len + 4; // name + crc32
        let Some(name) = bytes.get(at + 6..at + 6 + len) else {
            break;
        };
        if bytes.len() < end {
            break;
        }
        out.insert(id, String::from_utf8_lossy(name).into_owned());
        at = end;
    }
    out
}

fn dump_file(
    path: &Path,
    catalog: &BTreeMap<u32, String>,
) -> Result<(), Box<dyn std::error::Error>> {
    let reader = TsFileReader::open(path)?;
    let size = std::fs::metadata(path)?.len();
    // Chunk bodies tile the file from the head magic: everything after
    // the last one is the footer body and its trailer (CRC, length and
    // tail magic).
    let data_end = reader
        .chunk_metas()
        .last()
        .map_or(MAGIC.len() as u64, |m| m.offset + m.byte_len);
    let trailer = (4 + 8 + MAGIC.len()) as u64;
    println!(
        "  {} ({} bytes, {} chunks in {} series runs, footer {} bytes for {} chunks)",
        path.file_name().unwrap_or_default().to_string_lossy(),
        size,
        reader.chunk_metas().len(),
        reader.series_runs().len(),
        size - data_end - trailer,
        reader.chunk_metas().len()
    );
    for run in reader.series_runs() {
        let name = catalog
            .get(&run.series)
            .map(|n| format!(" ({n:?})"))
            .unwrap_or_default();
        let supersedes = match run.supersedes.0 {
            0 => String::new(),
            v => format!(", supersedes versions ≤ {v}"),
        };
        println!(
            "    run s{}{name}: chunks {}..{}{supersedes}",
            run.series, run.chunks.start, run.chunks.end
        );
        for meta in reader.run_chunks(run) {
            let s = &meta.stats;
            let body = reader.read_chunk_raw(meta)?;
            let forms = page::forms(&body)?;
            let ts = match forms.timestamps {
                TsForm::Constant => "constant",
                TsForm::Stream => "stream",
                TsForm::Packed => "packed",
            };
            let values = match (forms.values, page::decimal_framing(&body)?) {
                (ValueForm::Stream, _) => "stream",
                (ValueForm::Packed, _) => "packed",
                (ValueForm::Decimal, Some(Framing::Delta)) => "decimal (delta)",
                (ValueForm::Decimal, _) => "decimal (reference)",
            };
            println!(
                "      chunk {} @{:>8}+{:<6} n={:<5} t=[{} … {}] v=[{} … {}]  ts {ts}, values {values}",
                meta.version,
                meta.offset,
                meta.byte_len,
                s.count,
                s.first.t,
                s.last.t,
                s.bottom.v,
                s.top.v,
            );
        }
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (dir, is_demo) = match std::env::args().nth(1) {
        Some(d) => (PathBuf::from(d), false),
        None => {
            let d = std::env::temp_dir().join(format!("m4lsm-inspect-{}", std::process::id()));
            std::fs::remove_dir_all(&d).ok();
            build_demo(&d)?;
            (d, true)
        }
    };

    println!("store: {}", dir.display());
    if let Ok(shards) = std::fs::read_to_string(dir.join("SHARDS")) {
        println!("storage shards: {}", shards.trim());
    }
    let catalog = read_catalog(&dir);
    println!("catalog: {} series", catalog.len());
    for (id, name) in &catalog {
        println!("  s{id} = {name:?}");
    }

    let mut shard_dirs: Vec<_> = std::fs::read_dir(&dir)?
        .filter_map(|e| e.ok())
        .filter(|e| e.file_type().map(|t| t.is_dir()).unwrap_or(false))
        .map(|e| e.path())
        .collect();
    shard_dirs.sort();

    for sdir in shard_dirs {
        println!(
            "\n{}",
            sdir.file_name().unwrap_or_default().to_string_lossy()
        );
        let mut entries: Vec<_> = std::fs::read_dir(&sdir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        entries.sort();
        // Data files in creation order, each with its series runs. A
        // run whose series has since been compacted stays listed until
        // the file's last run is — the engine tells it is dead from the
        // `supersedes` of the later file holding that series.
        for p in &entries {
            if p.extension().and_then(|e| e.to_str()) == Some("tsfile") {
                dump_file(p, &catalog)?;
            }
        }
        // Delete logs (one per series, whatever runs its entries apply
        // to: an entry hides points of every chunk with a lower version)
        // and shared WAL segments.
        for p in &entries {
            let fname = p.file_name().unwrap_or_default().to_string_lossy();
            if p.extension().and_then(|e| e.to_str()) == Some("mods") {
                println!("  {fname}");
                for e in ModsFile::open(p)?.entries() {
                    println!("    delete {} range {}", e.version, e.range);
                }
            } else if fname.starts_with("wal-") && fname.ends_with(".log") {
                println!("  {fname} ({} bytes)", std::fs::metadata(p)?.len());
            }
        }
    }

    if is_demo {
        std::fs::remove_dir_all(&dir).ok();
    }
    Ok(())
}
