//! Corpus persistence: export the generated benchmark (databases + examples)
//! as a JSON document and load it back, so the corpus can be inspected,
//! shipped, or consumed by external tooling — the role of nvBench's release
//! files.

use crate::corpus::{Corpus, Example};
use crate::synth::Hardness;
use nl2vis_data::schema::{ColumnDef, DatabaseSchema, ForeignKey, TableDef};
use nl2vis_data::value::{DataType, Date, Value};
use nl2vis_data::{Catalog, Database, Json};
use nl2vis_query::printer::print;

/// Errors from corpus (de)serialization.
#[derive(Debug)]
pub enum IoError {
    /// Malformed JSON.
    Json(String),
    /// Structurally valid JSON that is not a corpus document.
    Schema(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Json(e) => write!(f, "invalid JSON: {e}"),
            IoError::Schema(e) => write!(f, "invalid corpus document: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

/// Serializes a corpus to a JSON document.
pub fn corpus_to_json(corpus: &Corpus) -> Json {
    let databases: Vec<Json> = corpus.catalog.iter().map(database_to_json).collect();
    let examples: Vec<Json> = corpus
        .examples
        .iter()
        .map(|e| {
            Json::object(vec![
                ("id", Json::from(e.id)),
                ("db", Json::from(e.db.as_str())),
                ("domain", Json::from(e.domain.as_str())),
                ("nl", Json::from(e.nl.as_str())),
                ("vql", Json::from(print(&e.vql).as_str())),
                ("hardness", Json::from(e.hardness.label())),
                ("is_join", Json::from(e.is_join)),
            ])
        })
        .collect();
    Json::object(vec![
        ("format", Json::from("nl2vis-corpus/v1")),
        ("databases", Json::Array(databases)),
        ("examples", Json::Array(examples)),
    ])
}

fn database_to_json(db: &Database) -> Json {
    let tables: Vec<Json> = db
        .tables()
        .iter()
        .map(|t| {
            let columns: Vec<Json> = t
                .def
                .columns
                .iter()
                .map(|c| {
                    let mut obj = Json::object(vec![
                        ("name", Json::from(c.name.as_str())),
                        ("type", Json::from(c.dtype.name())),
                    ]);
                    if !c.aliases.is_empty() {
                        obj.set(
                            "aliases",
                            Json::Array(c.aliases.iter().map(|a| Json::from(a.as_str())).collect()),
                        );
                    }
                    obj
                })
                .collect();
            let rows: Vec<Json> = t
                .rows()
                .iter()
                .map(|r| Json::Array(r.iter().map(Json::from).collect()))
                .collect();
            let mut obj = Json::object(vec![
                ("name", Json::from(t.def.name.as_str())),
                ("columns", Json::Array(columns)),
                ("rows", Json::Array(rows)),
            ]);
            if let Some(pk) = t.def.primary_key {
                obj.set("primary_key", Json::from(t.def.columns[pk].name.as_str()));
            }
            obj
        })
        .collect();
    let fks: Vec<Json> = db
        .schema
        .foreign_keys
        .iter()
        .map(|fk| {
            Json::Array(vec![
                Json::from(fk.from_table.as_str()),
                Json::from(fk.from_column.as_str()),
                Json::from(fk.to_table.as_str()),
                Json::from(fk.to_column.as_str()),
            ])
        })
        .collect();
    Json::object(vec![
        ("name", Json::from(db.name())),
        ("domain", Json::from(db.schema.domain.as_str())),
        ("tables", Json::Array(tables)),
        ("foreign_keys", Json::Array(fks)),
    ])
}

/// Loads a corpus from its JSON document.
pub fn corpus_from_json(doc: &Json) -> Result<Corpus, IoError> {
    if doc.get("format").and_then(Json::as_str) != Some("nl2vis-corpus/v1") {
        return Err(IoError::Schema(
            "missing or unknown `format` marker".to_string(),
        ));
    }
    let mut catalog = Catalog::new();
    for dbj in doc.get("databases").and_then(Json::as_array).unwrap_or(&[]) {
        catalog.add(database_from_json(dbj)?);
    }
    let mut examples = Vec::new();
    let mut ids = std::collections::HashSet::new();
    for ej in doc.get("examples").and_then(Json::as_array).unwrap_or(&[]) {
        let field = |k: &str| {
            ej.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| IoError::Schema(format!("example missing `{k}`")))
        };
        let vql_text = field("vql")?;
        let vql = nl2vis_query::parse(&vql_text)
            .map_err(|e| IoError::Schema(format!("bad VQL `{vql_text}`: {e}")))?;
        let hardness_label = field("hardness")?;
        let hardness = Hardness::all()
            .into_iter()
            .find(|h| h.label() == hardness_label)
            .ok_or_else(|| IoError::Schema(format!("unknown hardness `{hardness_label}`")))?;
        let id = ej
            .get("id")
            .and_then(Json::as_f64)
            .ok_or_else(|| IoError::Schema("example missing `id`".to_string()))?
            as usize;
        // `Corpus::example` finds an id by position before it scans, which
        // answers like the scan only when no two examples share an id.
        if !ids.insert(id) {
            return Err(IoError::Schema(format!("duplicate example id {id}")));
        }
        examples.push(Example {
            id,
            db: field("db")?,
            domain: field("domain")?,
            nl: field("nl")?,
            is_join: ej
                .get("is_join")
                .and_then(Json::as_bool)
                .unwrap_or(vql.is_join()),
            vql: Box::new(vql),
            hardness,
        });
    }
    Ok(Corpus { catalog, examples })
}

fn database_from_json(dbj: &Json) -> Result<Database, IoError> {
    let name = dbj
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| IoError::Schema("database missing `name`".to_string()))?;
    let domain = dbj
        .get("domain")
        .and_then(Json::as_str)
        .unwrap_or("unknown");
    let mut schema = DatabaseSchema::new(name, domain);
    let tables = dbj
        .get("tables")
        .and_then(Json::as_array)
        .ok_or_else(|| IoError::Schema(format!("database `{name}` missing `tables`")))?;
    let mut all_rows: Vec<(String, Vec<Vec<Value>>)> = Vec::new();
    for tj in tables {
        let tname = tj
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| IoError::Schema("table missing `name`".to_string()))?;
        let mut columns = Vec::new();
        let mut dtypes = Vec::new();
        for cj in tj.get("columns").and_then(Json::as_array).unwrap_or(&[]) {
            let cname = cj
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| IoError::Schema("column missing `name`".to_string()))?;
            let dtype = match cj.get("type").and_then(Json::as_str) {
                Some("int") => DataType::Int,
                Some("float") => DataType::Float,
                Some("text") => DataType::Text,
                Some("bool") => DataType::Bool,
                Some("date") => DataType::Date,
                other => {
                    return Err(IoError::Schema(format!(
                        "column `{cname}` has unknown type {other:?}"
                    )))
                }
            };
            dtypes.push(dtype);
            let aliases: Vec<String> = cj
                .get("aliases")
                .and_then(Json::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(Json::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default();
            columns.push(ColumnDef::new(cname, dtype).with_aliases(aliases));
        }
        let mut def = TableDef::new(tname, columns);
        if let Some(pk) = tj.get("primary_key").and_then(Json::as_str) {
            let idx = def
                .column_index(pk)
                .ok_or_else(|| IoError::Schema(format!("primary key `{pk}` not a column")))?;
            def.primary_key = Some(idx);
        }
        let mut rows = Vec::new();
        for rj in tj.get("rows").and_then(Json::as_array).unwrap_or(&[]) {
            let cells = rj
                .as_array()
                .ok_or_else(|| IoError::Schema("row is not an array".to_string()))?;
            let row: Result<Vec<Value>, IoError> = cells
                .iter()
                .zip(&dtypes)
                .map(|(v, dtype)| value_from_json(v, *dtype))
                .collect();
            rows.push(row?);
        }
        all_rows.push((tname.to_string(), rows));
        schema.tables.push(def);
    }
    for fkj in dbj
        .get("foreign_keys")
        .and_then(Json::as_array)
        .unwrap_or(&[])
    {
        let parts = fkj
            .as_array()
            .filter(|a| a.len() == 4)
            .ok_or_else(|| IoError::Schema("foreign key is not a 4-array".to_string()))?;
        let s = |i: usize| parts[i].as_str().unwrap_or_default().to_string();
        schema
            .foreign_keys
            .push(ForeignKey::new(s(0), s(1), s(2), s(3)));
    }
    schema.check().map_err(IoError::Schema)?;
    let mut db = Database::new(schema);
    for (tname, rows) in all_rows {
        for row in rows {
            db.insert(&tname, row)
                .map_err(|e| IoError::Schema(e.to_string()))?;
        }
    }
    Ok(db)
}

fn value_from_json(v: &Json, dtype: DataType) -> Result<Value, IoError> {
    Ok(match (v, dtype) {
        (Json::Null, _) => Value::Null,
        (Json::Number(n), DataType::Int) => Value::Int(*n as i64),
        (Json::Number(n), DataType::Float) => Value::Float(*n),
        (Json::String(s), DataType::Text) => Value::Text(s.clone()),
        (Json::Bool(b), DataType::Bool) => Value::Bool(*b),
        (Json::String(s), DataType::Date) => {
            Value::Date(Date::parse(s).ok_or_else(|| IoError::Schema(format!("bad date `{s}`")))?)
        }
        (other, dtype) => {
            return Err(IoError::Schema(format!(
                "value {other} does not fit type {dtype}"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;
    use nl2vis_query::canon::exact_match;

    #[test]
    fn corpus_roundtrips_through_json() {
        let original = Corpus::build(&CorpusConfig::small(77));
        let doc = corpus_to_json(&original);
        let text = doc.to_compact();
        let reparsed = Json::parse(&text).unwrap();
        let loaded = corpus_from_json(&reparsed).unwrap();

        assert_eq!(loaded.catalog.len(), original.catalog.len());
        assert_eq!(loaded.examples.len(), original.examples.len());
        for (a, b) in original.examples.iter().zip(&loaded.examples) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.nl, b.nl);
            assert_eq!(a.hardness, b.hardness);
            assert!(
                exact_match(&a.vql, &b.vql),
                "{} vs {}",
                print(&a.vql),
                print(&b.vql)
            );
        }
        // Databases round-trip with data: every example still executes to
        // the same result.
        for e in original.examples.iter().take(40) {
            let db_a = original.catalog.database(&e.db).unwrap();
            let db_b = loaded.catalog.database(&e.db).unwrap();
            let ra = nl2vis_query::execute(&e.vql, db_a).unwrap();
            let rb = nl2vis_query::execute(&e.vql, db_b).unwrap();
            assert!(ra.same_data(&rb));
        }
        loaded.catalog.validate().unwrap();
    }

    #[test]
    fn rejects_foreign_documents() {
        assert!(corpus_from_json(&Json::parse("{}").unwrap()).is_err());
        assert!(corpus_from_json(&Json::parse(r#"{"format":"something-else"}"#).unwrap()).is_err());
        let bad_vql = r#"{"format":"nl2vis-corpus/v1","databases":[],
            "examples":[{"id":0,"db":"d","domain":"x","nl":"q","vql":"NOT VQL","hardness":"easy"}]}"#;
        assert!(corpus_from_json(&Json::parse(bad_vql).unwrap()).is_err());
    }

    /// The example document of `corpus` with its ids replaced by `ids`.
    fn with_ids(corpus: &Corpus, ids: &[usize]) -> Json {
        let mut doc = corpus_to_json(corpus);
        let Some(Json::Array(examples)) = doc.get("examples").cloned() else {
            panic!("a corpus document lists its examples");
        };
        let renumbered = examples
            .into_iter()
            .zip(ids)
            .map(|(mut e, &id)| {
                e.set("id", Json::from(id));
                e
            })
            .collect();
        doc.set("examples", Json::Array(renumbered));
        doc
    }

    #[test]
    fn imported_ids_that_are_not_positions_are_found_as_the_scan_finds_them() {
        let original = Corpus::build(&CorpusConfig::small(77));
        let n = original.examples.len();
        // Reversed, then shifted past the end: ids that name another
        // example's position, and ids that name no position at all.
        let ids: Vec<usize> = (0..n)
            .map(|i| if i % 2 == 0 { n - 1 - i } else { n + i })
            .collect();
        let loaded = corpus_from_json(&with_ids(&original, &ids)).unwrap();
        for id in 0..2 * n + 2 {
            let scanned = loaded.examples.iter().find(|e| e.id == id);
            assert!(
                loaded.example(id).map(std::ptr::from_ref) == scanned.map(std::ptr::from_ref),
                "id {id}"
            );
        }
    }

    #[test]
    fn duplicate_example_ids_are_a_schema_error() {
        let original = Corpus::build(&CorpusConfig::small(77));
        let mut ids: Vec<usize> = (0..original.examples.len()).collect();
        ids[5] = 3;
        match corpus_from_json(&with_ids(&original, &ids)) {
            Err(IoError::Schema(message)) => assert!(message.contains("duplicate example id 3")),
            Err(other) => panic!("expected a schema error, got {other}"),
            Ok(_) => panic!("a corpus with a duplicate id was accepted"),
        }
    }

    #[test]
    fn alias_and_pk_metadata_survive() {
        let original = Corpus::build(&CorpusConfig::small(77));
        let loaded = corpus_from_json(&corpus_to_json(&original)).unwrap();
        let a = original.catalog.database("baseball_club").unwrap();
        let b = loaded.catalog.database("baseball_club").unwrap();
        let ta = a.table("technician").unwrap();
        let tb = b.table("technician").unwrap();
        assert_eq!(ta.def.primary_key, tb.def.primary_key);
        let ca = ta.def.column("team").unwrap();
        let cb = tb.def.column("team").unwrap();
        assert_eq!(ca.aliases, cb.aliases);
    }
}
