//! SQL front-end for the M4 representation query (paper Appendix A.1).
//!
//! The paper expresses the query as:
//!
//! ```sql
//! SELECT FirstTime(T), FirstValue(T),
//!        LastTime(T), LastValue(T),
//!        BottomTime(T), BottomValue(T),
//!        TopTime(T), TopValue(T)
//! FROM T
//! GROUPBY floor(@w * (t - @tqs) / (@tqe - @tqs))
//! ```
//!
//! This module parses exactly that shape (case-insensitively, with
//! `GROUP BY` also accepted, any subset/order of the eight projection
//! functions, and either numeric literals or `@name` parameters bound
//! at execution time) and executes it through either operator.
//!
//! ```
//! use m4::sql::{M4Statement, Params};
//! let stmt = M4Statement::parse(
//!     "SELECT FirstTime(T), TopValue(T) FROM sensor1 \
//!      GROUP BY floor(@w * (t - @tqs) / (@tqe - @tqs))",
//! ).unwrap();
//! let mut params = Params::new();
//! params.set("w", 100).set("tqs", 0).set("tqe", 1_000_000);
//! let query = stmt.bind(&params).unwrap();
//! assert_eq!(query.w, 100);
//! ```

mod exec;
mod lexer;
mod parser;

pub use exec::{execute, Row, Table};
pub use parser::{Column, M4Statement, Params, SqlError};
