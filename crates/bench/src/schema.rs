//! The committed bench records' schemas, and a minimal JSON reader to
//! check them.
//!
//! The recorder binaries (`bench_tradeoff`, `bench_scale`,
//! `bench_latency`) hand-assemble their JSON output (the serde shims are
//! no-op derives), which means nothing ties the **committed**
//! `BENCH_*.json` files to the recorders' current output shape: a PR can
//! change a recorder's fields and silently leave the committed records
//! describing a measurement that no longer exists. [`RECORDS`] is the one
//! list of committed records and their schemas; the `bench_check` binary
//! validates them (and, when present, the smoke outputs the CI run just
//! produced under `target/`), and this module's tests check that the
//! `BENCH_*.json` files at the repository root are exactly that list.
//!
//! **Keep the specs in lock-step with the recorders:** a field added to or
//! removed from a recorder's JSON must be mirrored here *and* the committed
//! record re-recorded, or CI's `bench-check` step fails.
//!
//! The JSON subset understood here is exactly what the recorders emit:
//! objects, arrays, finite numbers, strings without escapes, `true`/
//! `false`/`null`.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key–value pairs in document order (duplicate keys are rejected at
    /// parse time).
    Obj(Vec<(String, Json)>),
}

/// Parses a JSON document (the subset the recorders emit).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields: Vec<(String, Json)> = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                if fields.iter().any(|(k, _)| *k == key) {
                    return Err(format!("duplicate key {key:?}"));
                }
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' after key {key:?}"));
                }
                *pos += 1;
                let value = parse_value(b, pos)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let start = *pos;
            while *pos < b.len() && b[*pos] != b'"' {
                if b[*pos] == b'\\' {
                    return Err("string escapes are not part of the recorder subset".into());
                }
                *pos += 1;
            }
            if *pos >= b.len() {
                return Err("unterminated string".into());
            }
            let s = std::str::from_utf8(&b[start..*pos])
                .map_err(|_| "invalid UTF-8 in string".to_string())?
                .to_string();
            *pos += 1;
            Ok(Json::Str(s))
        }
        Some(&c) if c == b'-' || c.is_ascii_digit() => {
            let start = *pos;
            *pos += 1;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).unwrap();
            let n: f64 =
                text.parse().map_err(|_| format!("malformed number {text:?} at byte {start}"))?;
            if !n.is_finite() {
                return Err(format!("non-finite number {text:?}"));
            }
            Ok(Json::Num(n))
        }
        _ => {
            for (lit, value) in
                [("true", Json::Bool(true)), ("false", Json::Bool(false)), ("null", Json::Null)]
            {
                if b[*pos..].starts_with(lit.as_bytes()) {
                    *pos += lit.len();
                    return Ok(value);
                }
            }
            Err(format!("unexpected character {:?} at byte {}", b[*pos] as char, pos))
        }
    }
}

/// Expected shape of one JSON value.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// A finite number.
    Num,
    /// A finite number or `null` (optional measurements, e.g. hit rates of
    /// a backend without a cache).
    NumOrNull,
    /// A string.
    Str,
    /// A non-empty array whose elements all match the inner shape.
    Arr(&'static Shape),
    /// An object with **exactly** this key set (order-insensitive), each
    /// value matching its shape. Extra, missing, or renamed keys are drift.
    Obj(&'static [(&'static str, Shape)]),
}

/// Validates `value` against `shape`; the error names the offending path.
pub fn validate(value: &Json, shape: &Shape) -> Result<(), String> {
    validate_at(value, shape, "$")
}

fn validate_at(value: &Json, shape: &Shape, path: &str) -> Result<(), String> {
    match (shape, value) {
        (Shape::Num, Json::Num(_)) => Ok(()),
        (Shape::NumOrNull, Json::Num(_) | Json::Null) => Ok(()),
        (Shape::Str, Json::Str(_)) => Ok(()),
        (Shape::Arr(inner), Json::Arr(items)) => {
            if items.is_empty() {
                return Err(format!("{path}: array is empty"));
            }
            for (i, item) in items.iter().enumerate() {
                validate_at(item, inner, &format!("{path}[{i}]"))?;
            }
            Ok(())
        }
        (Shape::Obj(spec), Json::Obj(fields)) => {
            for (key, inner) in *spec {
                let Some(v) = fields.iter().find(|(k, _)| k == key).map(|(_, v)| v) else {
                    return Err(format!("{path}: missing key {key:?}"));
                };
                validate_at(v, inner, &format!("{path}.{key}"))?;
            }
            for (k, _) in fields {
                if !spec.iter().any(|(key, _)| key == k) {
                    return Err(format!("{path}: unexpected key {k:?} (schema drift?)"));
                }
            }
            Ok(())
        }
        _ => Err(format!("{path}: expected {shape:?}, got {value:?}")),
    }
}

/// Schema of `BENCH_tradeoff.json` (`bench_tradeoff` recorder).
pub const TRADEOFF_SCHEMA: Shape = Shape::Obj(&[
    ("vertices", Shape::Num),
    ("seed", Shape::Num),
    ("grid_exponent", Shape::Num),
    ("separation", Shape::Num),
    ("cache_fraction", Shape::Num),
    ("queries", Shape::Num),
    ("host_threads", Shape::Num),
    ("pcp_pairs", Shape::Num),
    ("pcp_stretch", Shape::Num),
    ("pcp_build_serial_s", Shape::Num),
    ("pcp_build_parallel_s", Shape::Num),
    ("pcp_build_workers", Shape::Num),
    ("pcp_batch_sssp", Shape::Num),
    ("pcp_batch_settled", Shape::Num),
    ("pcp_refine_sssp", Shape::Num),
    ("pcp_refined_pairs", Shape::Num),
    ("guaranteed_epsilon", Shape::Num),
    ("guaranteed_epsilon_apriori", Shape::Num),
    (
        "backends",
        Shape::Arr(&Shape::Obj(&[
            ("name", Shape::Str),
            ("build_s", Shape::Num),
            ("index_bytes", Shape::Num),
            ("qps", Shape::Num),
            ("p50_us", Shape::Num),
            ("p99_us", Shape::Num),
            ("pool_hit_rate", Shape::NumOrNull),
            ("cache_hit_rate", Shape::NumOrNull),
            ("mean_rel_error", Shape::Num),
            ("max_rel_error", Shape::Num),
        ])),
    ),
]);

/// Schema of `BENCH_scale.json` (`bench_scale` recorder).
pub const SCALE_SCHEMA: Shape = Shape::Obj(&[
    ("seed", Shape::Num),
    ("shard_target", Shape::Num),
    ("grid_exponent", Shape::Num),
    ("cache_fraction", Shape::Num),
    ("knn_k", Shape::Num),
    ("knn_density", Shape::Num),
    ("duration_ms", Shape::Num),
    ("host_threads", Shape::Num),
    ("base_vertices", Shape::Num),
    ("base_build_s", Shape::Num),
    (
        "sizes",
        Shape::Arr(&Shape::Obj(&[
            ("vertices", Shape::Num),
            ("shards", Shape::Num),
            ("cut_edges", Shape::Num),
            ("frontier_vertices", Shape::Num),
            ("fmi_roundtrip_s", Shape::Num),
            ("build_s", Shape::Num),
            ("projected_single_s", Shape::Num),
            ("speedup_vs_projected", Shape::Num),
            ("bytes_total", Shape::Num),
            ("entry_bytes", Shape::Num),
            ("frontier_bytes", Shape::Num),
            ("shard_build_s", Shape::Num),
            ("frontier_build_s", Shape::Num),
            ("prefetch_hits", Shape::Num),
            ("engine_s", Shape::Num),
            ("queries", Shape::Num),
            ("qps", Shape::Num),
            ("p50_us", Shape::Num),
            ("p99_us", Shape::Num),
            ("complete_fraction", Shape::Num),
            ("shard_bytes", Shape::Arr(&Shape::Num)),
        ])),
    ),
]);

/// Schema of `BENCH_latency.json` (`bench_latency` recorder).
pub const LATENCY_SCHEMA: Shape = Shape::Obj(&[
    ("vertices", Shape::Num),
    ("seed", Shape::Num),
    ("grid_exponent", Shape::Num),
    ("cache_fraction", Shape::Num),
    ("knn_k", Shape::Num),
    ("knn_density", Shape::Num),
    ("batch_size", Shape::Num),
    ("duration_ms", Shape::Num),
    ("host_threads", Shape::Num),
    ("capacity_qps", Shape::Num),
    (
        "runs",
        Shape::Arr(&Shape::Obj(&[
            ("order", Shape::Str),
            ("offered_fraction", Shape::Num),
            ("offered_qps", Shape::Num),
            ("sent", Shape::Num),
            ("answered", Shape::Num),
            ("busy", Shape::Num),
            ("achieved_qps", Shape::Num),
            ("p50_us", Shape::Num),
            ("p99_us", Shape::Num),
            ("p999_us", Shape::Num),
            ("pool_hit_rate", Shape::Num),
            ("entry_cache_hit_rate", Shape::Num),
        ])),
    ),
]);

/// Every committed bench record at the repository root, with its schema:
/// `bench_check` validates these, and the tests below check that no other
/// `BENCH_*.json` file sits beside them.
pub const RECORDS: &[(&str, &Shape)] = &[
    ("BENCH_tradeoff.json", &TRADEOFF_SCHEMA),
    ("BENCH_scale.json", &SCALE_SCHEMA),
    ("BENCH_latency.json", &LATENCY_SCHEMA),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_objects() {
        let v = parse(r#"{"a": 1.5, "b": [1, -2e3, null], "c": "hi", "d": true}"#).unwrap();
        let expected = Json::Obj(vec![
            ("a".into(), Json::Num(1.5)),
            ("b".into(), Json::Arr(vec![Json::Num(1.0), Json::Num(-2000.0), Json::Null])),
            ("c".into(), Json::Str("hi".into())),
            ("d".into(), Json::Bool(true)),
        ]);
        assert_eq!(v, expected);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "{\"a\":1}{", "{\"a\":1,\"a\":2}", "nul"] {
            assert!(parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn validation_names_the_offending_path() {
        const S: Shape = Shape::Obj(&[
            ("x", Shape::Num),
            ("rows", Shape::Arr(&Shape::Obj(&[("y", Shape::Num)]))),
        ]);
        let good = parse(r#"{"x": 1, "rows": [{"y": 2}]}"#).unwrap();
        assert!(validate(&good, &S).is_ok());
        let missing = parse(r#"{"rows": [{"y": 2}]}"#).unwrap();
        assert!(validate(&missing, &S).unwrap_err().contains("missing key \"x\""));
        let extra = parse(r#"{"x": 1, "z": 0, "rows": [{"y": 2}]}"#).unwrap();
        assert!(validate(&extra, &S).unwrap_err().contains("unexpected key \"z\""));
        let nested = parse(r#"{"x": 1, "rows": [{"y": "no"}]}"#).unwrap();
        assert!(validate(&nested, &S).unwrap_err().contains("$.rows[0].y"));
        let empty = parse(r#"{"x": 1, "rows": []}"#).unwrap();
        assert!(validate(&empty, &S).unwrap_err().contains("empty"));
    }

    #[test]
    fn committed_records_match_their_schemas() {
        // The in-repo gate the bench_check binary runs in CI: if this fails,
        // a recorder's schema and the committed record have drifted apart,
        // or a record whose recorder is gone (or a record with no schema)
        // sits at the repository root.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
        for &(file, schema) in RECORDS {
            let path = format!("{root}{file}");
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            let value = parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
            validate(&value, schema).unwrap_or_else(|e| panic!("{file}: {e}"));
        }
        let mut on_disk: Vec<String> = std::fs::read_dir(root)
            .unwrap_or_else(|e| panic!("cannot list {root}: {e}"))
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
            .collect();
        on_disk.sort();
        let mut listed: Vec<&str> = RECORDS.iter().map(|&(file, _)| file).collect();
        listed.sort();
        assert_eq!(on_disk, listed, "BENCH_*.json files at the root vs schema::RECORDS");
    }
}
