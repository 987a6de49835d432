//! Foundation types for the `nl2vis` workspace.
//!
//! This crate provides everything the rest of the system stands on:
//!
//! - [`value`]: the dynamically-typed [`Value`] cell type with a
//!   total order and hashing suitable for grouping and result comparison;
//! - [`schema`]: relational schema descriptions (tables, columns, primary and
//!   foreign keys) together with natural-language aliases used by the corpus
//!   generator and schema linkers;
//! - [`table`] / [`database`] / [`catalog`]: a small in-memory row store with
//!   referential-integrity validation and a multi-database catalog;
//! - [`json`]: a dependency-free JSON value, parser and serializer (used for
//!   Vega-Lite emission, the `Table2JSON` prompt format and the HTTP API);
//! - [`csv`]: a minimal RFC-4180-style CSV reader/writer (used by the
//!   `Table2CSV` prompt format);
//! - [`load`]: building a database from CSV text with column-type
//!   inference, for running the pipeline over user data;
//! - [`rng`]: a deterministic SplitMix64-based random number generator so that
//!   every experiment in the paper reproduction is a pure function of its
//!   seed, and the stable string hashes [`fnv1a`] and [`seed_hash`];
//! - [`text`]: identifier tokenization and Jaccard similarity, shared by the
//!   demonstration selector and the schema linkers.

pub mod catalog;
pub mod csv;
pub mod database;
pub mod error;
pub mod json;
pub mod load;
pub mod rng;
pub mod schema;
pub mod table;
pub mod text;
pub mod value;

pub use catalog::Catalog;
pub use database::Database;
pub use error::DataError;
pub use json::Json;
pub use load::database_from_csv;
pub use rng::{fnv1a, seed_hash, Rng};
pub use schema::{ColumnDef, DatabaseSchema, ForeignKey, TableDef};
pub use table::Table;
pub use value::{DataType, Date, Value};
