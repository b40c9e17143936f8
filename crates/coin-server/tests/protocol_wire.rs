//! Wire-protocol tests: JSON codec round-trips, golden encodings of the
//! product writers (`write_value` for values, the `/query` result writer
//! for tables), and a raw client↔server loopback over [`ServerHandle`]
//! exercising the HTTP layer beneath the ODBC-style API.

use std::sync::Arc;

use coin_core::{CoinSystem, DomainModel};
use coin_rel::{Catalog, ColumnType, Schema, Table, Value};
use coin_server::protocol::{json_to_value, protocol_handler, write_value};
use coin_server::{http, parse_json, HttpResponse, Json, JsonBuf};
use coin_wrapper::RelationalSource;

/// The wire text `write_value` produces for one value.
fn wire(v: &Value) -> String {
    let mut out = JsonBuf::new();
    write_value(v, &mut out);
    out.into_string()
}

/// The `"rows"` document of `rows` as `write_value` encodes them.
fn wire_rows(rows: &[Vec<Value>]) -> String {
    let mut out = JsonBuf::new();
    out.begin_obj().key("rows").begin_arr();
    for row in rows {
        out.begin_arr();
        for v in row {
            write_value(v, &mut out);
        }
        out.end_arr();
    }
    out.end_arr().end_obj();
    out.into_string()
}

/// The body `/query` answers for selecting every column of `t` in naive
/// mode with `"stream": false`, served by the protocol handler over a
/// one-source system holding `t`.
fn query_body(t: Table) -> String {
    let mut system = CoinSystem::new(DomainModel::new());
    let columns: Vec<String> = t
        .schema
        .columns
        .iter()
        .map(|c| format!("{0} AS {0}", c.name))
        .collect();
    let sql = format!("SELECT {} FROM {}", columns.join(", "), t.name);
    system
        .add_source(RelationalSource::new("src", Catalog::new().with_table(t)))
        .unwrap();
    let request = http::HttpRequest {
        method: "POST".into(),
        path: "/query".into(),
        query: Default::default(),
        headers: Default::default(),
        body: Json::obj([
            ("sql", Json::str(&sql)),
            ("mode", Json::str("naive")),
            ("stream", Json::Bool(false)),
        ])
        .to_string()
        .into_bytes(),
        version: "HTTP/1.1".into(),
    };
    let response = protocol_handler(Arc::new(system))(&request);
    String::from_utf8(response.body).unwrap()
}

// ---------------------------------------------------------------------------
// JSON parse/print round-trips
// ---------------------------------------------------------------------------

#[test]
fn json_documents_roundtrip_through_text() {
    let docs = [
        Json::Null,
        Json::Bool(false),
        Json::Num(-300.0),
        Json::Num(2.5),
        Json::str(""),
        Json::str("quote \" backslash \\ newline \n tab \t unicode 通貨"),
        Json::Arr(vec![]),
        Json::Obj(vec![]),
        Json::obj([
            ("sql", Json::str("SELECT r1.cname FROM r1 WHERE x > 3")),
            (
                "nested",
                Json::Arr(vec![Json::Null, Json::obj([("k", Json::Num(1.0))])]),
            ),
            ("mode", Json::str("mediated")),
        ]),
    ];
    for doc in docs {
        let printed = doc.to_string();
        let reparsed = parse_json(&printed).unwrap();
        assert_eq!(reparsed, doc, "text form: {printed}");
        // Printing is a fixed point: parse(print(x)) prints identically.
        assert_eq!(reparsed.to_string(), printed);
    }
}

#[test]
fn json_control_characters_escape_and_return() {
    let original = Json::str("bell \u{7} feed \u{c} backspace \u{8}");
    let printed = original.to_string();
    assert!(printed.contains("\\u0007"), "{printed}");
    assert_eq!(parse_json(&printed).unwrap(), original);
}

#[test]
fn json_rejects_malformed_documents() {
    for bad in [
        "",
        "{\"a\":}",
        "[1 2]",
        "tru",
        "\"\\q\"",
        "1.2.3",
        "{\"a\":1,}",
    ] {
        assert!(parse_json(bad).is_err(), "accepted malformed input {bad:?}");
    }
}

// ---------------------------------------------------------------------------
// Protocol golden cases
// ---------------------------------------------------------------------------

#[test]
fn value_encodings_are_stable() {
    // Golden wire forms: changing these breaks deployed clients.
    let cases: [(&Value, &str); 5] = [
        (&Value::Null, "null"),
        (&Value::Bool(true), r#"["b",true]"#),
        (&Value::Int(9_600_000), r#"["i","9600000"]"#),
        (&Value::Float(0.0096), r#"["f",0.0096]"#),
        (&Value::str("NTT"), r#"["s","NTT"]"#),
    ];
    for (value, golden) in cases {
        assert_eq!(wire(value), golden);
        assert_eq!(
            json_to_value(&parse_json(golden).unwrap()).as_ref(),
            Some(value)
        );
    }
}

#[test]
fn int_encoding_survives_f64_precision_loss() {
    // 2^53 + 1 is not representable as an f64; the string-tagged encoding
    // must carry it anyway.
    let v = Value::Int((1 << 53) + 1);
    let back = json_to_value(&parse_json(&wire(&v)).unwrap()).unwrap();
    assert_eq!(back, v);
}

#[test]
fn bogus_wire_values_decode_to_none() {
    for bad in [
        r#"["x",1]"#,
        r#"["i","not a number"]"#,
        r#"["b"]"#,
        "3",
        r#""s""#,
    ] {
        assert_eq!(
            json_to_value(&parse_json(bad).unwrap()),
            None,
            "accepted {bad}"
        );
    }
}

#[test]
fn table_encoding_golden() {
    let t = Table::from_rows(
        "answer",
        Schema::of(&[("cname", ColumnType::Str), ("revenue", ColumnType::Float)]),
        vec![vec![Value::str("NTT"), Value::Float(9_600_000.0)]],
    );
    assert_eq!(
        query_body(t),
        r#"{"columns":[{"name":"cname","type":"STR"},{"name":"revenue","type":"FLOAT"}],"rows":[[["s","NTT"],["f",9600000]]],"remote_queries":1}"#
    );
}

#[test]
fn table_with_nulls_and_every_type_roundtrips() {
    let t = Table::from_rows(
        "mixed",
        Schema::of(&[
            ("i", ColumnType::Int),
            ("f", ColumnType::Float),
            ("s", ColumnType::Str),
            ("b", ColumnType::Bool),
        ]),
        vec![
            vec![
                Value::Int(-1),
                Value::Float(2.5),
                Value::str("x"),
                Value::Bool(false),
            ],
            vec![Value::Null, Value::Null, Value::Null, Value::Null],
        ],
    );
    let expected_rows = t.rows.clone();
    let doc = parse_json(&query_body(t)).unwrap();
    let rows = doc.get("rows").unwrap().as_array().unwrap();
    assert_eq!(rows.len(), 2);
    let decoded: Vec<Vec<Value>> = rows
        .iter()
        .map(|r| {
            r.as_array()
                .unwrap()
                .iter()
                .map(|v| json_to_value(v).unwrap())
                .collect()
        })
        .collect();
    assert_eq!(decoded, expected_rows);
}

// ---------------------------------------------------------------------------
// Client ↔ server loopback over ServerHandle
// ---------------------------------------------------------------------------

#[test]
fn raw_json_loopback_over_server_handle() {
    // A handler that decodes a wire table, transforms it, and sends it
    // back — both directions of the protocol codec over a real socket.
    let handler: http::Handler = Arc::new(|req: &http::HttpRequest| {
        let doc = match parse_json(&req.body_str()) {
            Ok(d) => d,
            Err(e) => return HttpResponse::error(400, &e.to_string()),
        };
        let rows = doc.get("rows").and_then(Json::as_array).unwrap_or(&[]);
        let doubled: Vec<Vec<Value>> = rows
            .iter()
            .map(|row| {
                row.as_array()
                    .unwrap_or(&[])
                    .iter()
                    .map(|v| match json_to_value(v) {
                        Some(Value::Int(i)) => Value::Int(i * 2),
                        other => other.unwrap_or(Value::Null),
                    })
                    .collect()
            })
            .collect();
        HttpResponse::json_raw(wire_rows(&doubled))
    });
    let server = http::serve("127.0.0.1:0", 2, handler).unwrap();

    let rows = vec![vec![Value::Int(21)], vec![Value::Int(-4)]];
    let reply = http::post(
        &server.addr,
        "/double",
        "application/json",
        wire_rows(&rows).as_bytes(),
    )
    .unwrap();
    let doc = parse_json(&String::from_utf8_lossy(&reply)).unwrap();
    let rows = doc.get("rows").unwrap().as_array().unwrap();
    let values: Vec<Value> = rows
        .iter()
        .map(|r| json_to_value(&r.as_array().unwrap()[0]).unwrap())
        .collect();
    assert_eq!(values, vec![Value::Int(42), Value::Int(-8)]);
    server.stop();
}
