//! Relational schema descriptions.
//!
//! A [`DatabaseSchema`] owns [`TableDef`]s and [`ForeignKey`]s. Columns carry
//! optional *natural-language aliases* — the phrases an end user might use
//! for the column (e.g. `salary` ↔ "pay", "wage") — which the corpus
//! generator uses to realize queries and the schema linkers use to resolve
//! them.

use crate::value::DataType;
use std::fmt;

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Identifier (snake_case by convention).
    pub name: String,
    /// Declared type.
    pub dtype: DataType,
    /// Natural-language synonyms a user might say for this column.
    pub aliases: Vec<String>,
}

impl ColumnDef {
    /// Creates a column without aliases.
    pub fn new(name: impl Into<String>, dtype: DataType) -> ColumnDef {
        ColumnDef {
            name: name.into(),
            dtype,
            aliases: Vec::new(),
        }
    }

    /// Builder-style alias attachment.
    pub fn with_aliases<I, S>(mut self, aliases: I) -> ColumnDef
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.aliases = aliases.into_iter().map(Into::into).collect();
        self
    }
}

/// A table definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    /// Identifier (snake_case by convention).
    pub name: String,
    /// Ordered columns.
    pub columns: Vec<ColumnDef>,
    /// Index into `columns` of the primary key, if any.
    pub primary_key: Option<usize>,
}

impl TableDef {
    /// Creates a table definition.
    pub fn new(name: impl Into<String>, columns: Vec<ColumnDef>) -> TableDef {
        TableDef {
            name: name.into(),
            columns,
            primary_key: None,
        }
    }

    /// Builder-style primary key by column name. Panics if unknown (schema
    /// construction is programmer-controlled).
    pub fn with_primary_key(mut self, column: &str) -> TableDef {
        let idx = self
            .column_index(column)
            .unwrap_or_else(|| panic!("primary key column `{column}` not in `{}`", self.name));
        self.primary_key = Some(idx);
        self
    }

    /// Index of a column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Column def by case-insensitive name.
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.column_index(name).map(|i| &self.columns[i])
    }

    /// All column names in declaration order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }
}

/// A foreign-key edge between two tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing table.
    pub from_table: String,
    /// Referencing column.
    pub from_column: String,
    /// Referenced table.
    pub to_table: String,
    /// Referenced column (normally the referenced table's primary key).
    pub to_column: String,
}

impl ForeignKey {
    /// Creates a foreign key edge.
    pub fn new(
        from_table: impl Into<String>,
        from_column: impl Into<String>,
        to_table: impl Into<String>,
        to_column: impl Into<String>,
    ) -> ForeignKey {
        ForeignKey {
            from_table: from_table.into(),
            from_column: from_column.into(),
            to_table: to_table.into(),
            to_column: to_column.into(),
        }
    }
}

impl fmt::Display for ForeignKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{} -> {}.{}",
            self.from_table, self.from_column, self.to_table, self.to_column
        )
    }
}

/// A database schema: a named set of tables plus foreign-key edges and a
/// domain tag (e.g. "sports", "college") used by the cross-domain splitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatabaseSchema {
    /// Database identifier.
    pub name: String,
    /// Topical domain the database belongs to.
    pub domain: String,
    /// Tables in declaration order.
    pub tables: Vec<TableDef>,
    /// Foreign-key edges.
    pub foreign_keys: Vec<ForeignKey>,
}

impl DatabaseSchema {
    /// Creates an empty schema.
    pub fn new(name: impl Into<String>, domain: impl Into<String>) -> DatabaseSchema {
        DatabaseSchema {
            name: name.into(),
            domain: domain.into(),
            tables: Vec::new(),
            foreign_keys: Vec::new(),
        }
    }

    /// Looks up a table by case-insensitive name.
    pub fn table(&self, name: &str) -> Option<&TableDef> {
        self.tables
            .iter()
            .find(|t| t.name.eq_ignore_ascii_case(name))
    }

    /// The foreign key joining the two tables (either direction), if any.
    pub fn join_edge(&self, a: &str, b: &str) -> Option<&ForeignKey> {
        self.foreign_keys.iter().find(|fk| {
            (fk.from_table.eq_ignore_ascii_case(a) && fk.to_table.eq_ignore_ascii_case(b))
                || (fk.from_table.eq_ignore_ascii_case(b) && fk.to_table.eq_ignore_ascii_case(a))
        })
    }

    /// Validates that the schema is internally consistent: unique table
    /// names, unique column names per table, and FK endpoints that exist with
    /// matching types.
    pub fn check(&self) -> Result<(), String> {
        for (i, t) in self.tables.iter().enumerate() {
            for u in &self.tables[i + 1..] {
                if t.name.eq_ignore_ascii_case(&u.name) {
                    return Err(format!("duplicate table name `{}`", t.name));
                }
            }
            for (j, c) in t.columns.iter().enumerate() {
                for d in &t.columns[j + 1..] {
                    if c.name.eq_ignore_ascii_case(&d.name) {
                        return Err(format!("duplicate column `{}` in `{}`", c.name, t.name));
                    }
                }
            }
        }
        for fk in &self.foreign_keys {
            let from = self
                .table(&fk.from_table)
                .ok_or_else(|| format!("FK references missing table `{}`", fk.from_table))?;
            let to = self
                .table(&fk.to_table)
                .ok_or_else(|| format!("FK references missing table `{}`", fk.to_table))?;
            let fc = from
                .column(&fk.from_column)
                .ok_or_else(|| format!("FK references missing column `{}`", fk.from_column))?;
            let tc = to
                .column(&fk.to_column)
                .ok_or_else(|| format!("FK references missing column `{}`", fk.to_column))?;
            if fc.dtype != tc.dtype {
                return Err(format!("FK {fk} joins mismatched types"));
            }
        }
        Ok(())
    }

    /// Total column count across tables (used for prompt-length accounting).
    pub fn total_columns(&self) -> usize {
        self.tables.iter().map(|t| t.columns.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType::*;

    fn sample() -> DatabaseSchema {
        let mut s = DatabaseSchema::new("shop", "retail");
        s.tables.push(
            TableDef::new(
                "customers",
                vec![
                    ColumnDef::new("customer_id", Int),
                    ColumnDef::new("name", Text).with_aliases(["customer name"]),
                ],
            )
            .with_primary_key("customer_id"),
        );
        s.tables.push(
            TableDef::new(
                "orders",
                vec![
                    ColumnDef::new("order_id", Int),
                    ColumnDef::new("customer_id", Int),
                    ColumnDef::new("amount", Float),
                ],
            )
            .with_primary_key("order_id"),
        );
        s.foreign_keys.push(ForeignKey::new(
            "orders",
            "customer_id",
            "customers",
            "customer_id",
        ));
        s
    }

    #[test]
    fn check_passes_on_valid_schema() {
        assert_eq!(sample().check(), Ok(()));
    }

    #[test]
    fn check_rejects_duplicate_tables() {
        let mut s = sample();
        s.tables
            .push(TableDef::new("Customers", vec![ColumnDef::new("x", Int)]));
        assert!(s.check().is_err());
    }

    #[test]
    fn check_rejects_bad_fk() {
        let mut s = sample();
        s.foreign_keys.push(ForeignKey::new(
            "orders",
            "nope",
            "customers",
            "customer_id",
        ));
        assert!(s.check().is_err());
    }

    #[test]
    fn check_rejects_fk_type_mismatch() {
        let mut s = sample();
        s.tables[1].columns[1].dtype = Text;
        assert!(s.check().is_err());
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let s = sample();
        assert!(s.table("CUSTOMERS").is_some());
        assert!(s.tables[0].column("NAME").is_some());
    }

    #[test]
    fn join_edge_found_both_directions() {
        let s = sample();
        assert!(s.join_edge("orders", "customers").is_some());
        assert!(s.join_edge("customers", "orders").is_some());
        assert!(s.join_edge("customers", "customers").is_none());
    }

    #[test]
    fn primary_key_panics_on_unknown() {
        let result = std::panic::catch_unwind(|| {
            TableDef::new("t", vec![ColumnDef::new("a", Int)]).with_primary_key("zzz")
        });
        assert!(result.is_err());
    }

    #[test]
    fn total_columns_counts_all() {
        assert_eq!(sample().total_columns(), 5);
    }
}
