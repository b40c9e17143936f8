//! The tree-building `/query` encoders: a result table and its values
//! built as [`Json`] nodes, then printed. The server writes the same
//! wire format straight into a buffer with
//! [`coin_server::protocol::write_value`]; these are the baseline the
//! `relational_serialize` bench measures that writer against.

use coin_rel::{Table, Value};
use coin_server::Json;

/// Encode a value in the tagged wire format as a `Json` node.
fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Arr(vec![Json::str("b"), Json::Bool(*b)]),
        Value::Int(i) => Json::Arr(vec![Json::str("i"), Json::Str(i.to_string())]),
        Value::Float(f) => Json::Arr(vec![Json::str("f"), Json::Num(*f)]),
        Value::Str(s) => Json::Arr(vec![Json::str("s"), Json::str(s)]),
    }
}

/// Encode a result table as a `{"columns": …, "rows": …}` tree.
pub fn table_to_json(t: &Table) -> Json {
    Json::obj([
        (
            "columns",
            Json::Arr(
                t.schema
                    .columns
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::str(&c.name)),
                            ("type", Json::str(c.ty.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "rows",
            Json::Arr(
                t.rows
                    .iter()
                    .map(|r| Json::Arr(r.iter().map(value_to_json).collect()))
                    .collect(),
            ),
        ),
    ])
}
