//! Execution of parsed M4 statements against the storage engine.

use tskv::TsKv;

use crate::repr::SpanRepr;
use crate::sql::parser::{Column, M4Statement, Params, SqlError};
use crate::{M4Error, Operator};

/// One output row: the span (group) index plus the selected column
/// values in SELECT order.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// 0-based group id, `floor(w·(t−t_qs)/(t_qe−t_qs))`.
    pub group: usize,
    /// Values in the statement's projection order.
    pub values: Vec<f64>,
}

/// Query result: header + rows (empty spans produce no row, as GROUP BY
/// over no tuples would).
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    pub columns: Vec<Column>,
    pub rows: Vec<Row>,
}

impl Table {
    /// Render as an aligned text table (for the CLI example).
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("{:>8}", "group"));
        for c in &self.columns {
            s.push_str(&format!(" {:>16}", c.name()));
        }
        s.push('\n');
        for row in &self.rows {
            s.push_str(&format!("{:>8}", row.group));
            for v in &row.values {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    s.push_str(&format!(" {:>16}", *v as i64));
                } else {
                    s.push_str(&format!(" {:>16.4}", v));
                }
            }
            s.push('\n');
        }
        s
    }
}

fn project(repr: &SpanRepr, column: Column) -> f64 {
    match column {
        Column::FirstTime => repr.first.t as f64,
        Column::FirstValue => repr.first.v,
        Column::LastTime => repr.last.t as f64,
        Column::LastValue => repr.last.v,
        Column::BottomTime => repr.bottom.t as f64,
        Column::BottomValue => repr.bottom.v,
        Column::TopTime => repr.top.t as f64,
        Column::TopValue => repr.top.v,
    }
}

/// Errors surfaced by statement execution.
#[derive(Debug)]
pub enum ExecError {
    Sql(SqlError),
    M4(M4Error),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Sql(e) => write!(f, "sql error: {e}"),
            ExecError::M4(e) => write!(f, "execution error: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Parse-bind-execute one statement against `kv`.
pub fn execute(
    kv: &TsKv,
    statement: &M4Statement,
    params: &Params,
    operator: Operator,
) -> Result<Table, ExecError> {
    let query = statement.bind(params).map_err(ExecError::Sql)?;
    let snapshot = kv
        .snapshot(&statement.series)
        .map_err(|e| ExecError::M4(e.into()))?;
    let result = operator.execute(&snapshot, &query).map_err(ExecError::M4)?;

    let rows = result
        .spans
        .iter()
        .enumerate()
        .filter_map(|(group, span)| {
            span.as_ref().map(|repr| Row {
                group,
                values: statement
                    .columns
                    .iter()
                    .map(|c| project(repr, *c))
                    .collect(),
            })
        })
        .collect();
    Ok(Table {
        columns: statement.columns.clone(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    // Tests assert by panicking; the workspace deny-set targets library code.
    #![allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )]

    use super::*;
    use testdir::TestDir;
    use tsfile::types::Point;
    use tskv::config::EngineConfig;

    fn store() -> (TestDir, TsKv) {
        let dir = TestDir::new("m4-sql");
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: 25,
                memtable_threshold: 100,
                ..Default::default()
            },
        )
        .unwrap();
        for t in 0..400i64 {
            kv.insert("root.sg.temp", Point::new(t, (t % 37) as f64))
                .unwrap();
        }
        kv.flush_all().unwrap();
        (dir, kv)
    }

    #[test]
    fn executes_the_paper_statement() {
        let (_dir, kv) = store();
        let stmt = M4Statement::parse(
            "SELECT FirstTime(T), FirstValue(T), LastTime(T), LastValue(T), \
             BottomTime(T), BottomValue(T), TopTime(T), TopValue(T) \
             FROM root.sg.temp GROUPBY floor(@w*(t-@tqs)/(@tqe-@tqs))",
        )
        .unwrap();
        let mut p = Params::new();
        p.set("w", 4).set("tqs", 0).set("tqe", 400);
        let lsm = execute(&kv, &stmt, &p, Operator::Lsm).unwrap();
        let udf = execute(&kv, &stmt, &p, Operator::Udf).unwrap();
        assert_eq!(lsm.rows.len(), 4);
        assert_eq!(lsm.columns.len(), 8);
        // FP/LP agree exactly; BP/TP agree in value columns.
        for (a, b) in lsm.rows.iter().zip(&udf.rows) {
            assert_eq!(a.group, b.group);
            assert_eq!(a.values[0], b.values[0]); // FirstTime
            assert_eq!(a.values[5], b.values[5]); // BottomValue
            assert_eq!(a.values[7], b.values[7]); // TopValue
        }
        // Span 0 = [0, 99]: first point (0, 0.0), top value 36.
        assert_eq!(lsm.rows[0].values[0], 0.0);
        assert_eq!(lsm.rows[0].values[7], 36.0);
    }

    #[test]
    fn empty_spans_produce_no_rows() {
        let (_dir, kv) = store();
        let stmt = M4Statement::parse(
            "SELECT FirstTime(T) FROM root.sg.temp GROUPBY floor(10*(t-0)/(4000-0))",
        )
        .unwrap();
        let t = execute(&kv, &stmt, &Params::new(), Operator::Lsm).unwrap();
        // Data covers only [0, 400) of [0, 4000): 1 of 10 groups.
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0].group, 0);
    }

    #[test]
    fn unknown_series_errors() {
        let (_dir, kv) = store();
        let stmt =
            M4Statement::parse("SELECT FirstTime(T) FROM nope GROUPBY floor(1*(t-0)/(10-0))")
                .unwrap();
        assert!(execute(&kv, &stmt, &Params::new(), Operator::Lsm).is_err());
    }

    #[test]
    fn table_text_rendering() {
        let t = Table {
            columns: vec![Column::FirstTime, Column::TopValue],
            rows: vec![Row {
                group: 0,
                values: vec![100.0, 3.5],
            }],
        };
        let text = t.to_text();
        assert!(text.contains("FirstTime"));
        assert!(text.contains("3.5"));
        assert!(text.contains("100"));
    }
}
