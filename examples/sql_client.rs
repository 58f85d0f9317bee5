//! SQL client: run the paper's Appendix A.1 representation query
//! through the SQL front-end, as an analyst's tool would.
//!
//! ```text
//! cargo run --release --example sql_client
//! cargo run --release --example sql_client -- "SELECT TopValue(T) FROM demo.signal GROUPBY floor(8*(t-0)/(100000-0))"
//! ```

use m4lsm::m4::sql::{execute, M4Statement, Params};
use m4lsm::m4::Operator;
use m4lsm::tsfile::types::Point;
use m4lsm::tskv::config::EngineConfig;
use m4lsm::tskv::TsKv;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("m4lsm-sql-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let kv = TsKv::open(&dir, EngineConfig::default())?;

    // Demo data: 100 seconds at 1 ms cadence with a sag in the middle.
    for i in 0..100_000i64 {
        let v = if (40_000..45_000).contains(&i) {
            -50.0
        } else {
            (i % 1000) as f64 / 10.0
        };
        kv.insert("demo.signal", Point::new(i, v))?;
    }
    kv.flush_all()?;

    let statement = std::env::args().nth(1).unwrap_or_else(|| {
        "SELECT FirstTime(T), FirstValue(T), LastTime(T), LastValue(T), \
         BottomTime(T), BottomValue(T), TopTime(T), TopValue(T) \
         FROM demo.signal GROUPBY floor(@w*(t-@tqs)/(@tqe-@tqs))"
            .to_string()
    });

    println!("> {statement}\n");
    let stmt = M4Statement::parse(&statement)?;
    let mut params = Params::new();
    params.set("w", 10).set("tqs", 0).set("tqe", 100_000);

    let t = std::time::Instant::now();
    let table = execute(&kv, &stmt, &params, Operator::Lsm)?;
    let elapsed = t.elapsed();
    print!("{}", table.to_text());
    println!("\n{} rows via M4-LSM in {elapsed:?}", table.rows.len());

    // Cross-check against the baseline operator.
    let udf = execute(&kv, &stmt, &params, Operator::Udf)?;
    assert_eq!(table.rows.len(), udf.rows.len());
    println!(
        "cross-checked against M4-UDF: {} rows agree",
        udf.rows.len()
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
