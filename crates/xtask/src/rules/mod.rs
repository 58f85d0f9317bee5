//! The three rule families, implemented over the AST engine.
//!
//! Each `lN` module exposes a `check` that walks parsed syntax (plus,
//! for L2/L5, the call-graph summaries) and pushes
//! [`crate::report::Violation`]-shaped findings through a callback.
//! Rule selection per file lives in `crate::rules_for`.

pub mod l2;
pub mod l3;
pub mod l5;

/// Shared push-callback shape: (line, message).
pub type Push<'a> = &'a mut dyn FnMut(u32, String);
