//! The table-to-prompt serialization strategies of Figure 4 of the paper.
//!
//! Four families, fourteen concrete variants:
//!
//! - **A. Table serialization** — `Schema`, `Table (Column)`, `Column=[]`,
//!   `+FK`, `+Value`;
//! - **B. Table summarization** — `Table2NL` (a generated prose summary) and
//!   `Chat2Vis*` (the per-column template of Maddigan & Susnjak);
//! - **C. Table markup formatting** — `Table2JSON`, `Table2CSV`, `Table2MD`,
//!   `Table2XML`;
//! - **D. Table programming** — `Table2SQL`, `Table2SQL+Select`,
//!   `Table2Code` (Python class representation).
//!
//! Each variant preserves a different amount of structure (column↔table
//! attribution, types, keys, rows) at a different token cost; the simulated
//! LLM's per-format prompt parsers and the ICL token budget turn those
//! differences into the accuracy differences of Table 2.

use nl2vis_data::text::{approx_token_count, for_each_word, jaccard_counts, words};
use nl2vis_data::{csv, Database, Json, Table};
use std::collections::HashSet;
use std::fmt::Write as _;

/// A concrete serialization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PromptFormat {
    /// Flat schema: table names and a *global* column list (columns are not
    /// attributed to tables — the weakest signal).
    Schema,
    /// `technician ( tech_id , name , ... )` per table.
    TableColumn,
    /// `technician = [ tech_id , name , ... ]` per table.
    ColumnList,
    /// `Column=[]` plus foreign-key lines.
    ColumnListFk,
    /// `Column=[]+FK` plus the first rows of each table.
    ColumnListFkValue,
    /// Generated natural-language summary of the tables.
    Table2Nl,
    /// Chat2Vis-style per-column typed description.
    Chat2Vis,
    /// JSON document (columns, types, keys, one relevant row).
    Table2Json,
    /// CSV blocks (header plus one relevant row; no types, no keys).
    Table2Csv,
    /// Markdown tables (header plus one relevant row).
    Table2Md,
    /// XML document (columns, types, keys, one relevant row).
    Table2Xml,
    /// SQL `CREATE TABLE` statements with PK/FK constraints.
    Table2Sql,
    /// `Table2SQL` plus `SELECT * FROM t LIMIT R` row listings.
    Table2SqlSelect,
    /// Python class-based representation with type hints.
    Table2Code,
}

impl PromptFormat {
    /// Every variant, in the order of Table 2 of the paper.
    pub fn all() -> [PromptFormat; 14] {
        use PromptFormat::*;
        [
            Schema,
            TableColumn,
            ColumnList,
            ColumnListFk,
            ColumnListFkValue,
            Table2Nl,
            Chat2Vis,
            Table2Json,
            Table2Csv,
            Table2Md,
            Table2Xml,
            Table2Sql,
            Table2SqlSelect,
            Table2Code,
        ]
    }

    /// The eleven variants that appear as rows of Table 2.
    pub fn table2_rows() -> [PromptFormat; 11] {
        use PromptFormat::*;
        [
            Schema,
            TableColumn,
            ColumnList,
            Table2Nl,
            Chat2Vis,
            Table2Json,
            Table2Csv,
            Table2Md,
            Table2Xml,
            Table2Sql,
            Table2Code,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            PromptFormat::Schema => "Schema",
            PromptFormat::TableColumn => "Table (Column)",
            PromptFormat::ColumnList => "Column=[]",
            PromptFormat::ColumnListFk => "Column=[]+FK",
            PromptFormat::ColumnListFkValue => "Column=[]+FK+Value",
            PromptFormat::Table2Nl => "Table2NL",
            PromptFormat::Chat2Vis => "Chat2Vis*",
            PromptFormat::Table2Json => "Table2JSON",
            PromptFormat::Table2Csv => "Table2CSV",
            PromptFormat::Table2Md => "Table2MD",
            PromptFormat::Table2Xml => "Table2XML",
            PromptFormat::Table2Sql => "Table2SQL",
            PromptFormat::Table2SqlSelect => "Table2SQL+Select",
            PromptFormat::Table2Code => "Table2Code",
        }
    }

    /// Serializes a database for a given question (the question drives
    /// relevant-row selection for the formats that embed rows, per §5.1.1 of
    /// the paper).
    pub fn serialize(self, db: &Database, question: &str) -> String {
        match self {
            PromptFormat::Schema => schema_flat(db),
            PromptFormat::TableColumn => table_column(db),
            PromptFormat::ColumnList => column_list(db, false, 0, question),
            PromptFormat::ColumnListFk => column_list(db, true, 0, question),
            PromptFormat::ColumnListFkValue => column_list(db, true, 3, question),
            PromptFormat::Table2Nl => table2nl(db),
            PromptFormat::Chat2Vis => chat2vis(db),
            PromptFormat::Table2Json => table2json(db, question),
            PromptFormat::Table2Csv => table2csv(db, question),
            PromptFormat::Table2Md => table2md(db, question),
            PromptFormat::Table2Xml => table2xml(db, question),
            PromptFormat::Table2Sql => table2sql(db, 0, question),
            PromptFormat::Table2SqlSelect => table2sql(db, 3, question),
            PromptFormat::Table2Code => table2code(db),
        }
    }

    /// Does this format attribute columns to their tables?
    pub fn attributes_columns(self) -> bool {
        !matches!(self, PromptFormat::Schema)
    }

    /// Does this format carry column types?
    pub fn carries_types(self) -> bool {
        matches!(
            self,
            PromptFormat::Chat2Vis
                | PromptFormat::Table2Json
                | PromptFormat::Table2Xml
                | PromptFormat::Table2Sql
                | PromptFormat::Table2SqlSelect
                | PromptFormat::Table2Code
        )
    }

    /// Does this format carry foreign-key relationships?
    pub fn carries_fks(self) -> bool {
        matches!(
            self,
            PromptFormat::ColumnListFk
                | PromptFormat::ColumnListFkValue
                | PromptFormat::Table2Nl
                | PromptFormat::Table2Json
                | PromptFormat::Table2Xml
                | PromptFormat::Table2Sql
                | PromptFormat::Table2SqlSelect
                | PromptFormat::Table2Code
        )
    }

    /// Approximate token cost of serializing this database.
    pub fn token_cost(self, db: &Database, question: &str) -> usize {
        approx_token_count(&self.serialize(db, question))
    }
}

impl std::fmt::Display for PromptFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Index of the row of `table` most relevant to the question, by Jaccard
/// similarity between the question and the rendered row (§2.2.2); ties go
/// to the earlier row.
pub fn most_relevant_row(table: &Table, question: &str) -> Option<usize> {
    let q: HashSet<String> = words(question).into_iter().collect();
    // One rendering buffer and one distinct-word list serve every row; a
    // row's words are few, so a linear scan finds its repeats.
    let mut rendered = String::new();
    let mut row_words: Vec<String> = Vec::new();
    let mut best: Option<(usize, f64)> = None;
    for (i, row) in table.rows().iter().enumerate() {
        rendered.clear();
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                rendered.push(' ');
            }
            write!(rendered, "{v}").expect("writing to a String cannot fail");
        }
        let (mut size, mut inter) = (0, 0);
        for_each_word(&rendered, |w| {
            if row_words[..size].iter().any(|seen| seen == w) {
                return;
            }
            match row_words.get_mut(size) {
                Some(slot) => {
                    slot.clear();
                    slot.push_str(w);
                }
                None => row_words.push(w.to_string()),
            }
            size += 1;
            inter += usize::from(q.contains(w));
        });
        let score = jaccard_counts(q.len(), size, inter);
        if best.is_none_or(|(_, b)| score.total_cmp(&b).is_gt()) {
            best = Some((i, score));
        }
    }
    best.map(|(i, _)| i)
}

fn schema_flat(db: &Database) -> String {
    let tables: Vec<&str> = db.tables().iter().map(|t| t.def.name.as_str()).collect();
    let mut columns = Vec::new();
    for t in db.tables() {
        for c in &t.def.columns {
            columns.push(c.name.as_str());
        }
    }
    format!(
        "Database: {}\nTables: {}\nColumns: {}",
        db.name(),
        tables.join(", "),
        columns.join(", ")
    )
}

fn table_column(db: &Database) -> String {
    let mut out = format!("Database: {}\n", db.name());
    for t in db.tables() {
        out.push_str(&format!(
            "{} ( {} )\n",
            t.def.name,
            t.def.column_names().join(" , ")
        ));
    }
    out.trim_end().to_string()
}

fn column_list(db: &Database, fks: bool, rows: usize, question: &str) -> String {
    let mut out = format!("Database: {}\n", db.name());
    for t in db.tables() {
        out.push_str(&format!(
            "{} = [ {} ]\n",
            t.def.name,
            t.def.column_names().join(" , ")
        ));
    }
    if fks {
        for fk in &db.schema.foreign_keys {
            out.push_str(&format!(
                "Foreign key: {}.{} = {}.{}\n",
                fk.from_table, fk.from_column, fk.to_table, fk.to_column
            ));
        }
    }
    if rows > 0 {
        for t in db.tables() {
            let anchor = most_relevant_row(t, question).unwrap_or(0);
            out.push_str(&format!("Rows of {}:\n", t.def.name));
            for i in anchor..(anchor + rows).min(t.len()) {
                let cells: Vec<String> = t.row(i).unwrap().iter().map(|v| v.render()).collect();
                out.push_str(&format!("( {} )\n", cells.join(" , ")));
            }
        }
    }
    out.trim_end().to_string()
}

fn table2nl(db: &Database) -> String {
    // A generated prose summary, in the style the paper obtains by asking
    // ChatGPT to "describe the tabular data in text".
    let mut out = format!(
        "The database \"{}\" covers the {} domain and contains {} table{}. ",
        db.name(),
        db.schema.domain,
        db.tables().len(),
        if db.tables().len() == 1 { "" } else { "s" }
    );
    for t in db.tables() {
        let cols = t.def.column_names().join(", ");
        out.push_str(&format!(
            "The table {} records {} entries and includes the fields {}. ",
            t.def.name,
            t.len(),
            cols
        ));
    }
    for fk in &db.schema.foreign_keys {
        out.push_str(&format!(
            "Each {} row refers to a {} row through {}. ",
            fk.from_table, fk.to_table, fk.from_column
        ));
    }
    out.trim_end().to_string()
}

fn chat2vis(db: &Database) -> String {
    // Chat2Vis builds, per table, a description enumerating each column with
    // its data type (Maddigan & Susnjak 2023). No foreign-key information.
    let mut out = String::new();
    for t in db.tables() {
        out.push_str(&format!(
            "Use a dataframe called {} with columns {}. ",
            t.def.name,
            t.def.column_names().join(", ")
        ));
        for c in &t.def.columns {
            out.push_str(&format!(
                "The column '{}' has data type {}. ",
                c.name,
                c.dtype.name()
            ));
        }
        out.push('\n');
    }
    out.trim_end().to_string()
}

fn table2json(db: &Database, question: &str) -> String {
    let tables: Vec<Json> = db
        .tables()
        .iter()
        .map(|t| {
            let columns: Vec<Json> = t
                .def
                .columns
                .iter()
                .map(|c| {
                    Json::object(vec![
                        ("name", Json::from(c.name.as_str())),
                        ("type", Json::from(c.dtype.name())),
                    ])
                })
                .collect();
            let mut obj = vec![
                ("name", Json::from(t.def.name.as_str())),
                ("columns", Json::Array(columns)),
            ];
            if let Some(pk) = t.def.primary_key {
                obj.push(("primary_key", Json::from(t.def.columns[pk].name.as_str())));
            }
            if let Some(i) = most_relevant_row(t, question) {
                let row: Vec<Json> = t.row(i).unwrap().iter().map(Json::from).collect();
                obj.push(("sample_row", Json::Array(row)));
            }
            Json::object(obj)
        })
        .collect();
    let fks: Vec<Json> = db
        .schema
        .foreign_keys
        .iter()
        .map(|fk| {
            Json::object(vec![
                (
                    "from",
                    Json::from(format!("{}.{}", fk.from_table, fk.from_column).as_str()),
                ),
                (
                    "to",
                    Json::from(format!("{}.{}", fk.to_table, fk.to_column).as_str()),
                ),
            ])
        })
        .collect();
    Json::object(vec![
        ("database", Json::from(db.name())),
        ("tables", Json::Array(tables)),
        ("foreign_keys", Json::Array(fks)),
    ])
    .to_pretty()
}

fn table2csv(db: &Database, question: &str) -> String {
    let mut out = String::new();
    for t in db.tables() {
        out.push_str(&format!("# table: {}\n", t.def.name));
        let mut rows: Vec<Vec<String>> =
            vec![t.def.column_names().iter().map(|s| s.to_string()).collect()];
        if let Some(i) = most_relevant_row(t, question) {
            rows.push(t.row(i).unwrap().iter().map(|v| v.render()).collect());
        }
        out.push_str(&csv::write_rows(&rows));
        out.push('\n');
    }
    out.trim_end().to_string()
}

fn table2md(db: &Database, question: &str) -> String {
    let mut out = String::new();
    for t in db.tables() {
        out.push_str(&format!("### {}\n", t.def.name));
        out.push_str(&format!("| {} |\n", t.def.column_names().join(" | ")));
        out.push_str(&format!("|{}\n", " --- |".repeat(t.def.columns.len())));
        if let Some(i) = most_relevant_row(t, question) {
            let cells: Vec<String> = t.row(i).unwrap().iter().map(|v| v.render()).collect();
            out.push_str(&format!("| {} |\n", cells.join(" | ")));
        }
    }
    out.trim_end().to_string()
}

fn table2xml(db: &Database, question: &str) -> String {
    let mut out = format!("<database name=\"{}\">\n", db.name());
    for t in db.tables() {
        out.push_str(&format!("  <table name=\"{}\">\n", t.def.name));
        for (i, c) in t.def.columns.iter().enumerate() {
            let pk = if t.def.primary_key == Some(i) {
                " key=\"primary\""
            } else {
                ""
            };
            out.push_str(&format!(
                "    <column name=\"{}\" type=\"{}\"{pk}/>\n",
                c.name,
                c.dtype.name()
            ));
        }
        if let Some(i) = most_relevant_row(t, question) {
            out.push_str("    <row>");
            for (c, v) in t.def.columns.iter().zip(t.row(i).unwrap()) {
                out.push_str(&format!(
                    "<{}>{}</{}>",
                    c.name,
                    xml_escape(&v.render()),
                    c.name
                ));
            }
            out.push_str("</row>\n");
        }
        out.push_str("  </table>\n");
    }
    for fk in &db.schema.foreign_keys {
        out.push_str(&format!(
            "  <foreign_key from=\"{}.{}\" to=\"{}.{}\"/>\n",
            fk.from_table, fk.from_column, fk.to_table, fk.to_column
        ));
    }
    out.push_str("</database>");
    out
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn table2sql(db: &Database, select_rows: usize, question: &str) -> String {
    let mut out = String::new();
    for t in db.tables() {
        out.push_str(&format!("CREATE TABLE {} (\n", t.def.name));
        let mut lines = Vec::new();
        for (i, c) in t.def.columns.iter().enumerate() {
            let pk = if t.def.primary_key == Some(i) {
                " PRIMARY KEY"
            } else {
                ""
            };
            lines.push(format!("  {} {}{pk}", c.name, c.dtype.sql_name()));
        }
        for fk in &db.schema.foreign_keys {
            if fk.from_table.eq_ignore_ascii_case(&t.def.name) {
                lines.push(format!(
                    "  FOREIGN KEY ({}) REFERENCES {}({})",
                    fk.from_column, fk.to_table, fk.to_column
                ));
            }
        }
        out.push_str(&lines.join(",\n"));
        out.push_str("\n);\n");
    }
    if select_rows > 0 {
        for t in db.tables() {
            out.push_str(&format!(
                "-- SELECT * FROM {} LIMIT {select_rows};\n",
                t.def.name
            ));
            let anchor = most_relevant_row(t, question).unwrap_or(0);
            // Anchor window: the most relevant row plus its successors.
            let start = anchor.min(t.len().saturating_sub(select_rows));
            for row in &t.rows()[start..(start + select_rows).min(t.len())] {
                let cells: Vec<String> = row.iter().map(|v| v.render()).collect();
                out.push_str(&format!("-- {}\n", cells.join(" | ")));
            }
        }
    }
    out.trim_end().to_string()
}

fn table2code(db: &Database) -> String {
    // Python class-based representation with type hints (§3.2.D): classes for
    // each table, attributes with type hints, and explicit key objects.
    let mut out = String::from("import datetime\nfrom dataclasses import dataclass\n\n");
    for t in db.tables() {
        out.push_str(&format!("@dataclass\nclass {}:\n", pascal(&t.def.name)));
        out.push_str(&format!(
            "    \"\"\"Table {} of database {}.\"\"\"\n",
            t.def.name,
            db.name()
        ));
        for (i, c) in t.def.columns.iter().enumerate() {
            let marker = if t.def.primary_key == Some(i) {
                "  # primary key"
            } else {
                ""
            };
            out.push_str(&format!(
                "    {}: {}{marker}\n",
                c.name,
                c.dtype.python_name()
            ));
        }
        out.push('\n');
    }
    for fk in &db.schema.foreign_keys {
        out.push_str(&format!(
            "ForeignKey(source={}.{}, target={}.{})\n",
            pascal(&fk.from_table),
            fk.from_column,
            pascal(&fk.to_table),
            fk.to_column
        ));
    }
    out.trim_end().to_string()
}

fn pascal(ident: &str) -> String {
    nl2vis_data::text::split_identifier(ident)
        .iter()
        .map(|w| {
            let mut chars = w.chars();
            match chars.next() {
                Some(first) => first.to_ascii_uppercase().to_string() + chars.as_str(),
                None => String::new(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nl2vis_corpus::domains::all_domains;
    use nl2vis_corpus::generate::instantiate;
    use nl2vis_data::text::jaccard_sets;
    use nl2vis_data::{ColumnDef, DataType, Rng, TableDef, Value};

    fn db() -> Database {
        instantiate(&all_domains()[0], 0, &mut Rng::new(2))
    }

    #[test]
    fn all_formats_produce_output() {
        let d = db();
        for f in PromptFormat::all() {
            let s = f.serialize(&d, "count technicians per team");
            assert!(!s.is_empty(), "{f} empty");
            assert!(
                s.contains("technician") || s.contains("Technician"),
                "{f}: {s}"
            );
        }
    }

    #[test]
    fn schema_flat_does_not_attribute_columns() {
        let d = db();
        let s = PromptFormat::Schema.serialize(&d, "");
        // One global column list, not per-table groupings.
        assert!(s.contains("Columns: "));
        assert!(!s.contains("technician ("));
        assert!(!PromptFormat::Schema.attributes_columns());
    }

    #[test]
    fn sql_has_ddl_with_keys() {
        let d = db();
        let s = PromptFormat::Table2Sql.serialize(&d, "");
        assert!(s.contains("CREATE TABLE technician"));
        assert!(s.contains("PRIMARY KEY"));
        assert!(s.contains("FOREIGN KEY (tech_id) REFERENCES technician(tech_id)"));
        assert!(s.contains("REAL") && s.contains("TEXT") && s.contains("DATE"));
    }

    #[test]
    fn sql_select_appends_rows() {
        let d = db();
        let s = PromptFormat::Table2SqlSelect.serialize(&d, "technicians in NYY");
        assert!(s.contains("SELECT * FROM technician LIMIT 3"));
        assert!(s.matches("-- ").count() >= 4);
    }

    #[test]
    fn json_parses_and_carries_structure() {
        let d = db();
        let s = PromptFormat::Table2Json.serialize(&d, "salary by team");
        let j = Json::parse(&s).unwrap();
        let tables = j.get("tables").and_then(Json::as_array).unwrap();
        assert_eq!(tables.len(), 2);
        assert!(tables[0].get("primary_key").is_some());
        assert!(tables[0].get("sample_row").is_some());
        assert!(!j
            .get("foreign_keys")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn xml_structure() {
        let d = db();
        let s = PromptFormat::Table2Xml.serialize(&d, "");
        assert!(s.starts_with("<database"));
        assert!(s.contains("<column name=\"team\" type=\"text\"/>"));
        assert!(s.contains("key=\"primary\""));
        assert!(s.contains("<foreign_key"));
        assert!(s.ends_with("</database>"));
    }

    #[test]
    fn markdown_and_csv_have_headers_and_a_row() {
        let d = db();
        let md = PromptFormat::Table2Md.serialize(&d, "");
        assert!(md.contains("### technician"));
        assert!(md.contains("| tech_id | name |") || md.contains("| tech_id |"));
        let c = PromptFormat::Table2Csv.serialize(&d, "");
        assert!(c.contains("# table: technician"));
        assert!(c.contains("tech_id,name,team"));
    }

    #[test]
    fn code_has_classes_and_hints() {
        let d = db();
        let s = PromptFormat::Table2Code.serialize(&d, "");
        assert!(s.contains("class Technician:"));
        assert!(s.contains("salary: float"));
        assert!(s.contains("# primary key"));
        assert!(s.contains("ForeignKey(source=Machine.tech_id, target=Technician.tech_id)"));
    }

    #[test]
    fn relevant_row_selection_prefers_mentioned_values() {
        let d = db();
        let t = d.table("technician").unwrap();
        // Find a name that exists and ask about it.
        let name = t.row(3).unwrap()[1].render();
        let idx = most_relevant_row(t, &format!("what is the salary of {name}")).unwrap();
        assert_eq!(t.row(idx).unwrap()[1].render(), name);
    }

    #[test]
    fn relevant_row_ties_go_to_the_earlier_row() {
        let mut t = Table::new(TableDef::new(
            "t",
            vec![
                ColumnDef::new("name", DataType::Text),
                ColumnDef::new("team", DataType::Text),
            ],
        ));
        for (name, team) in [
            ("Ann", "Red"),
            ("Bob", "Blue"),
            ("Cy", "Red"),
            ("Di", "Blue"),
        ] {
            t.push_row(vec![Value::from(name), Value::from(team)])
                .unwrap();
        }
        // Rows 1 and 3 tie on "blue"; rows 0 and 2 on "red".
        assert_eq!(most_relevant_row(&t, "players on the blue team"), Some(1));
        assert_eq!(most_relevant_row(&t, "RED?"), Some(0));
        // No row shares a word: every row ties at zero.
        assert_eq!(most_relevant_row(&t, "zebra"), Some(0));
        assert_eq!(most_relevant_row(&Table::new(t.def.clone()), "zebra"), None);
    }

    /// `most_relevant_row` as a set intersection per row, the reference the
    /// counting version must match.
    fn most_relevant_row_by_sets(table: &Table, question: &str) -> Option<usize> {
        let q: HashSet<String> = words(question).into_iter().collect();
        let mut best: Option<(usize, f64)> = None;
        for (i, row) in table.rows().iter().enumerate() {
            let rendered = row.iter().map(Value::render).collect::<Vec<_>>().join(" ");
            let score = jaccard_sets(&q, &words(&rendered).into_iter().collect());
            if best.is_none_or(|(_, b)| score.total_cmp(&b).is_gt()) {
                best = Some((i, score));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Every table of a small corpus, asked each of its database's corpus
    /// questions, each of its rows rendered back as a question (repeats,
    /// numbers and dates included), and questions no row answers, picks the
    /// reference's row, so every row-bearing prompt is unchanged.
    #[test]
    fn relevant_row_matches_the_set_reference() {
        let c = nl2vis_corpus::Corpus::build(&nl2vis_corpus::CorpusConfig::small(5));
        let mut checked = 0;
        for db in c.catalog.iter() {
            let mut questions: Vec<String> = c
                .examples
                .iter()
                .filter(|e| e.db == db.name())
                .map(|e| e.nl.clone())
                .collect();
            questions.extend(["", "zebra", "NULL null 0.0 true"].map(String::from));
            for t in db.tables() {
                let row_questions = t.rows().iter().take(4).map(|row| {
                    let cells: Vec<String> = row.iter().map(Value::render).collect();
                    format!("{0}? {0}", cells.join(", ").to_uppercase())
                });
                for q in questions.iter().cloned().chain(row_questions) {
                    assert_eq!(
                        most_relevant_row(t, &q),
                        most_relevant_row_by_sets(t, &q),
                        "table {}.{}, question {q:?}",
                        db.name(),
                        t.def.name
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 1000, "checked only {checked} cases");
    }

    #[test]
    fn token_costs_ordered_sensibly() {
        let d = db();
        let q = "count technicians per team";
        let schema = PromptFormat::Schema.token_cost(&d, q);
        let sql = PromptFormat::Table2Sql.token_cost(&d, q);
        let code = PromptFormat::Table2Code.token_cost(&d, q);
        assert!(schema < sql, "schema {schema} < sql {sql}");
        assert!(sql < code, "sql {sql} < code {code}");
    }

    #[test]
    fn metadata_flags_consistent() {
        assert!(PromptFormat::Table2Sql.carries_fks());
        assert!(PromptFormat::Table2Sql.carries_types());
        assert!(!PromptFormat::Chat2Vis.carries_fks());
        assert!(PromptFormat::Chat2Vis.carries_types());
        assert!(!PromptFormat::ColumnList.carries_types());
        assert!(PromptFormat::ColumnListFk.carries_fks());
    }

    #[test]
    fn nl_summary_mentions_every_table_and_fk() {
        let d = db();
        let s = PromptFormat::Table2Nl.serialize(&d, "");
        assert!(s.contains("The table technician"));
        assert!(s.contains("The table machine"));
        assert!(s.contains("refers to a technician row"));
    }
}
