//! # coin-sql — SQL front end for the COIN mediator
//!
//! The COIN prototype exposes SQL to receivers ("queries in the COIN
//! framework are source-specific: a user formulates a query identifying
//! explicitly the sources and attributes referenced", paper §1) and the
//! mediation engine *emits* SQL — the mediated query is "a union of
//! sub-queries corresponding respectively to the possible conflicts … and
//! their resolution" (§2). This crate provides:
//!
//! * a lexer and recursive-descent parser for the dialect used throughout
//!   the paper (SELECT/FROM/WHERE, UNION, arithmetic, comparisons, and the
//!   usual predicates), see [`parser::parse_query`], with every syntax
//!   tree it builds bounded by [`MAX_DEPTH`];
//! * the [`ast`] with canonical-SQL `Display` implementations, so mediated
//!   queries print exactly in the §3 style;
//! * [`normalize`] — alias resolution and wildcard expansion against a
//!   schema dictionary, the form consumed by the mediator and planner.

pub mod ast;
pub mod lexer;
pub mod normalize;
pub mod parser;

pub use ast::{
    is_aggregate, BinOp, ColumnRef, Expr, OrderItem, Query, Select, SelectItem, TableRef, UnOp,
};
pub use lexer::{lex, LexError, Tok};
pub use normalize::{normalize_query, normalize_select, MapSchema, NormalizeError, SchemaLookup};
pub use parser::{parse_expr, parse_query, SqlError, MAX_DEPTH};
