//! Store inspector: a debugging tool that dumps the physical layout of
//! a tskv store — catalog, shards, files and their footer bytes (split
//! into the chunk index and the run directory, with the entries whose
//! BP or TP is an end point and those whose values are decimal, and the
//! chunk index split by part: entry heads, counts, times, interior
//! extremes and values), chunks,
//! versions, statistics, the form each chunk (one page) stores each
//! column in (timestamps constant or packed, and a packed column's
//! frame: delta or line; values packed, decimal, and
//! a decimal block's frame: reference, delta or line, or implied by the
//! statistics; a chunk of both constant and implied is bodiless), the
//! window exceptions its packed columns and decimal delta frames list
//! and their bytes, the catalog's head frame, records and checksums,
//! and pending deletes —
//! using only the public tsfile API, the catalog's own read-only reader
//! (`tskv::catalog::read_log`, the one recovery uses) and read-only
//! parsing of the store's other files.
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

use std::path::{Path, PathBuf};

use m4lsm::tsfile::encoding::packed::Framing;
use m4lsm::tsfile::format::MAGIC;
use m4lsm::tsfile::page::{TsForm, ValueForm};
use m4lsm::tsfile::{page, FileFooter, FooterCensus, ModsFile, TsFileReader};
use m4lsm::tskv::catalog;
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
    // frame of reference with that value raw. Its clock steps 7 s late
    // at the 450th reading (the paper's §3.5 delayed timestamp): that
    // chunk packs its timestamps, the one long delta a window exception
    // listed by its distance from the cadence, a few bytes.
    for t in 0..600i64 {
        let delay = if t >= 450 { 7_000 } else { 0 };
        kv.insert(
            "demo.kwh",
            Point::new(t * 1000 + delay, (t * 7 + t % 3) as f64 / 100.0),
        )?;
    }
    // A register that drifts while it jitters: a slow sine under a few
    // hundredths of noise. Framed from its minimum it pays the drift on
    // every value; its decimal blocks frame the values around their
    // trend line instead (`decimal (line)`), paying the noise alone. It
    // is sampled on a 1 s cadence jittered ±2 ms around its grid, so its
    // packed timestamps are residuals from the cadence line too
    // (`ts packed (line)`): deltas would pay the jitter of both ends.
    let mut state = 1u64;
    for t in 0..600i64 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let wave = 8.0 * (t as f64 / 1000.0).sin();
        let noise = ((state >> 60) % 13) as f64 / 100.0;
        let jitter = ((state >> 40) % 5) as i64 - 2;
        kv.insert(
            "demo.temp",
            Point::new(
                t * 1000 + jitter,
                ((225.0 + wave + noise) * 100.0).round() / 100.0,
            ),
        )?;
    }
    // One delete over two of demo.a's sealed runs: one entry in its one
    // log. The final flush covers its WAL record like any other, so
    // every shard's log ends up reset — `(0 bytes)` below.
    kv.delete("demo.a", 500_000, 600_000)?;
    kv.flush_all()?;
    Ok(())
}

/// Where a store's bytes go: its data files' heads and trailers, footer
/// bodies and chunk bodies, the catalog, and everything else (`SHARDS`,
/// delete logs, WAL segments).
#[derive(Default)]
struct Bytes {
    files: u64,
    heads_and_trailers: u64,
    footers: u64,
    chunk_bodies: u64,
    /// Chunks of zero bytes.
    bodiless: u64,
    /// The footers' parts and entry forms, summed.
    census: FooterCensus,
    /// Window exceptions, the bytes of their entries, decimal delta
    /// frames and the bytes of the heads those leave to FP.v.
    exceptions: [usize; 4],
}

/// Bytes of every file under `dir`, recursively.
fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Add one footer's census to a running total.
fn add(total: &mut FooterCensus, c: &FooterCensus) {
    total.index_bytes += c.index_bytes;
    total.heads += c.heads;
    total.counts += c.counts;
    total.times += c.times;
    total.extremes += c.extremes;
    total.values += c.values;
    total.directory_bytes += c.directory_bytes;
    total.extremes_at_an_end += c.extremes_at_an_end;
    total.decimal += c.decimal;
}

/// The chunk index's bytes by part: its count and the entries' heads
/// (version, tags, length), point counts, times, interior extremes'
/// times and values.
fn parts(c: &FooterCensus) -> String {
    format!(
        "heads {}, counts {}, times {}, extremes {}, values {}",
        c.heads, c.counts, c.times, c.extremes, c.values
    )
}

/// A footer's split into its parts, and its entries' forms.
fn split(c: &FooterCensus) -> String {
    format!(
        "chunk index {}, run directory {}; {} with an extreme at an end, {} decimal; index by part: {}",
        c.index_bytes,
        c.directory_bytes,
        c.extremes_at_an_end,
        c.decimal,
        parts(c)
    )
}

fn dump_file(
    path: &Path,
    catalog: &[String],
    bytes: &mut Bytes,
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
    bytes.files += 1;
    bytes.heads_and_trailers += MAGIC.len() as u64 + trailer;
    bytes.footers += size - data_end - trailer;
    bytes.chunk_bodies += data_end - MAGIC.len() as u64;
    // The footer re-encoded from what the reader decoded: its parts
    // must add up to the footer on disk.
    let census = FileFooter {
        chunks: reader.chunk_metas().to_vec(),
        runs: reader.series_runs().to_vec(),
    }
    .census();
    add(&mut bytes.census, &census);
    let mut exceptions = [0usize; 4];
    for meta in reader.chunk_metas() {
        let body = reader.read_chunk_raw(meta)?;
        let [k, list, head] = page::window_exceptions(&body, &meta.page())?;
        let delta = usize::from(forms_of(&body)?.1 == "decimal (delta)");
        for (total, x) in exceptions.iter_mut().zip([k, list, delta, head]) {
            *total += x;
        }
    }
    for (total, x) in bytes.exceptions.iter_mut().zip(exceptions) {
        *total += x;
    }
    println!(
        "  {} ({} bytes, {} chunks in {} series runs, window exceptions {} in {} B of entries, footer {} bytes for {} chunks: {})",
        path.file_name().unwrap_or_default().to_string_lossy(),
        size,
        reader.chunk_metas().len(),
        reader.series_runs().len(),
        exceptions[0],
        exceptions[1],
        size - data_end - trailer,
        reader.chunk_metas().len(),
        split(&census),
    );
    for run in reader.series_runs() {
        let name = catalog
            .get(run.series as usize)
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
            let (ts, values) = forms_of(&body)?;
            // A chunk whose footer entry holds it all has no body.
            let bodiless = match meta.byte_len {
                0 => ", bodiless",
                _ => "",
            };
            let exceptions = match page::window_exceptions(&body, &meta.page())? {
                [0, ..] => String::new(),
                [k, list, _] => format!(", window exceptions {k} in {list} B"),
            };
            bytes.bodiless += u64::from(meta.byte_len == 0);
            println!(
                "      chunk {} @{:>8}+{:<6} n={:<5} t=[{} … {}] v=[{} … {}]  ts {ts}, values {values}{bodiless}{exceptions}",
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

/// A page's two columns by name, each the same way: its form, and for a
/// packed block its frame (`packed (line)`, `decimal (delta)`, …).
fn forms_of(body: &[u8]) -> m4lsm::tsfile::Result<(String, String)> {
    let forms = page::forms(body)?;
    let [ts_frame, value_frame] = page::framings(body)?;
    let name = |form: &str, framing: Option<Framing>| match framing {
        Some(f) => format!("{form} ({})", format!("{f:?}").to_lowercase()),
        None => form.to_string(),
    };
    let ts = match forms.timestamps {
        TsForm::Constant => "constant",
        TsForm::Packed => "packed",
    };
    let values = match forms.values {
        ValueForm::Decimal => "decimal",
        ValueForm::Packed => "packed",
        ValueForm::Implied => "implied",
    };
    Ok((name(ts, ts_frame), name(values, value_frame)))
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
    let log = catalog::read_log(&dir)?;
    let catalog = log.names.clone();
    let catalog_bytes = std::fs::metadata(dir.join(catalog::CATALOG_LOG)).map_or(0, |m| m.len());
    // The magic and the head frame (one CRC), then a record (and its
    // CRC) a name interned since the last checkpoint, then torn bytes.
    let appended = catalog.len() - log.head;
    let catalog_split = format!(
        "catalog {catalog_bytes} B: head frame {} B for {} names, records {} B for {appended} names, torn {} B; checksums {} B",
        log.head_len,
        log.head,
        log.valid_len - log.head_len,
        catalog_bytes.saturating_sub(log.valid_len),
        4 * (u64::from(log.valid_len > 0) + appended as u64),
    );
    println!("catalog: {} series", catalog.len());
    for (id, name) in catalog.iter().enumerate() {
        println!("  s{id} = {name:?}");
    }

    let mut shard_dirs: Vec<_> = std::fs::read_dir(&dir)?
        .filter_map(|e| e.ok())
        .filter(|e| e.file_type().map(|t| t.is_dir()).unwrap_or(false))
        .map(|e| e.path())
        .collect();
    shard_dirs.sort();

    let mut bytes = Bytes::default();
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
                dump_file(p, &catalog, &mut bytes)?;
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

    // Each data file is its head magic, chunk bodies, footer body and
    // trailer; the rest of the store is the catalog and the logs.
    let total = dir_bytes(&dir)?;
    let data = bytes.heads_and_trailers + bytes.footers + bytes.chunk_bodies;
    println!(
        "\nstore bytes {total}: files {}, heads and trailers {}, footers {}, chunk bodies {}, catalog {catalog_bytes}, logs {}, bodiless chunks {}, footer bytes by part: {}, run directory {}",
        bytes.files,
        bytes.heads_and_trailers,
        bytes.footers,
        bytes.chunk_bodies,
        total - data - catalog_bytes,
        bytes.bodiless,
        parts(&bytes.census),
        bytes.census.directory_bytes
    );
    println!("footers split: {}", split(&bytes.census));
    let [k, list, deltas, heads] = bytes.exceptions;
    println!(
        "page lists: window exceptions {k} in {list} B of entries; {deltas} decimal delta frames, {heads} B of heads left to FP.v"
    );
    println!("{catalog_split}");

    if is_demo {
        std::fs::remove_dir_all(&dir).ok();
    }
    Ok(())
}
