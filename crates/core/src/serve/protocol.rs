//! The wire protocol's pure half: [`decode_request`] turns one request
//! line into a checked [`Request`] or a [`Reject`], and the renderers
//! build response objects. No I/O, no `Server`, no metrics.

use xpath_xml::Document;

use super::Json;
use crate::context::EvalError;
use crate::value::Value;

/// Node-set string values returned per result when a request sets no
/// `limit` (`count` is always exact).
const DEFAULT_VALUE_LIMIT: usize = 16;

/// The largest `limit` a request may ask for.
const MAX_VALUE_LIMIT: usize = 65_536;

/// The latency histogram a request is recorded under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Endpoint {
    /// A single-query `eval`, and every request rejected before its
    /// query count is known.
    Eval,
    /// An `eval` with two or more queries.
    Batch,
    /// `stats`.
    Stats,
    /// `ping` and `shutdown`.
    Ping,
}

/// A decoded request.
#[derive(Debug, PartialEq)]
pub(crate) struct Request {
    /// The `id` field, echoed verbatim on the response.
    pub id: Option<Json>,
    /// What the request asks for.
    pub op: Op,
}

/// The operation of a [`Request`].
#[derive(Debug, PartialEq)]
pub(crate) enum Op {
    /// Evaluate one or more queries against a stored document.
    Eval(EvalRequest),
    /// Dump the live metrics.
    Stats,
    /// Liveness probe.
    Ping,
    /// Begin graceful shutdown.
    Shutdown,
}

/// The fields of an `eval` request.
#[derive(Debug, PartialEq)]
pub(crate) struct EvalRequest {
    /// Query texts in request order (at least one).
    pub texts: Vec<String>,
    /// Snapshot name in the store.
    pub doc: String,
    /// Per-request deadline.
    pub timeout_ms: Option<u64>,
    /// Requested fan-out budget (default 1), before the server's cap.
    pub threads: u32,
    /// Node-set string values returned per result.
    pub limit: usize,
}

/// A request line that does not decode; the server answers it with an
/// `invalid_request` error.
#[derive(Debug, PartialEq)]
pub(crate) struct Reject {
    /// The request's `id`, when it got as far as being an object.
    pub id: Option<Json>,
    /// The histogram the rejected request is recorded under.
    pub endpoint: Endpoint,
    /// What was wrong.
    pub message: String,
}

impl Request {
    /// The latency histogram this request is recorded under.
    pub fn endpoint(&self) -> Endpoint {
        match &self.op {
            Op::Eval(eval) if eval.texts.len() >= 2 => Endpoint::Batch,
            Op::Eval(_) => Endpoint::Eval,
            Op::Stats => Endpoint::Stats,
            Op::Ping | Op::Shutdown => Endpoint::Ping,
        }
    }
}

impl Reject {
    fn new(id: Option<Json>, endpoint: Endpoint, message: impl Into<String>) -> Reject {
        Reject { id, endpoint, message: message.into() }
    }

    /// The `invalid_request` response.
    pub fn render(&self) -> Json {
        fail(self.id.as_ref(), "invalid_request", &self.message)
    }
}

/// Remove and return the value of `key` (the parser already dropped
/// duplicate keys).
fn take(fields: &mut [(String, Json)], key: &str) -> Option<Json> {
    fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| std::mem::replace(v, Json::Null))
}

/// Decode one request line. The `op` field may be omitted when `query`
/// or `queries` is present.
pub(crate) fn decode_request(line: &str) -> Result<Request, Reject> {
    let json = Json::parse(line)
        .map_err(|e| Reject::new(None, Endpoint::Eval, format!("bad JSON: {e}")))?;
    let Json::Obj(mut fields) = json else {
        return Err(Reject::new(None, Endpoint::Eval, "request must be a JSON object"));
    };
    let id = take(&mut fields, "id");
    let op = match take(&mut fields, "op") {
        Some(Json::Str(op)) => Some(op),
        Some(_) => return Err(Reject::new(id, Endpoint::Eval, "op must be a string")),
        None => None,
    };
    let op = match op.as_deref() {
        Some(op) => op,
        None if fields.iter().any(|(k, _)| k == "query" || k == "queries") => "eval",
        None => "",
    };
    let op = match op {
        "eval" | "query" => match decode_eval(&mut fields) {
            Ok(eval) => Op::Eval(eval),
            Err((endpoint, message)) => return Err(Reject::new(id, endpoint, message)),
        },
        "stats" => Op::Stats,
        "ping" => Op::Ping,
        "shutdown" => Op::Shutdown,
        other => {
            let message = format!("unknown op {other:?}");
            return Err(Reject::new(id, Endpoint::Eval, message));
        }
    };
    Ok(Request { id, op })
}

fn decode_eval(fields: &mut [(String, Json)]) -> Result<EvalRequest, (Endpoint, &'static str)> {
    let texts = if let Some(query) = take(fields, "query") {
        match query {
            Json::Str(text) => vec![text],
            _ => return Err((Endpoint::Eval, "query must be a string")),
        }
    } else if let Some(queries) = take(fields, "queries") {
        match queries {
            Json::Arr(items) if !items.is_empty() => {
                let mut texts = Vec::with_capacity(items.len());
                for item in items {
                    match item {
                        Json::Str(text) => texts.push(text),
                        _ => return Err((Endpoint::Eval, "queries must be strings")),
                    }
                }
                texts
            }
            _ => return Err((Endpoint::Eval, "queries must be a non-empty array")),
        }
    } else {
        return Err((Endpoint::Eval, "eval needs query or queries"));
    };
    let endpoint = if texts.len() >= 2 { Endpoint::Batch } else { Endpoint::Eval };
    let Some(Json::Str(doc)) = take(fields, "doc") else {
        return Err((endpoint, "eval needs a doc name"));
    };
    let timeout_ms = match take(fields, "timeout_ms") {
        None => None,
        Some(v) => match v.as_u64() {
            Some(ms) => Some(ms),
            None => return Err((endpoint, "timeout_ms must be a non-negative integer")),
        },
    };
    // `threads` and `limit` are lenient: a value that is not a
    // non-negative integer means the default.
    let threads = take(fields, "threads")
        .and_then(|v| v.as_u64())
        .map_or(1, |t| u32::try_from(t).unwrap_or(u32::MAX));
    let limit = take(fields, "limit")
        .and_then(|v| v.as_u64())
        .map_or(DEFAULT_VALUE_LIMIT, |l| usize::try_from(l).unwrap_or(usize::MAX))
        .min(MAX_VALUE_LIMIT);
    Ok(EvalRequest { texts, doc, timeout_ms, threads, limit })
}

/// The stable snake_case kind of an evaluation or compile error.
fn eval_error_kind(e: &EvalError) -> &'static str {
    match e {
        EvalError::Parse(_) => "parse_error",
        EvalError::UnknownFunction(_) => "unknown_function",
        EvalError::WrongArity { .. } => "wrong_arity",
        EvalError::TypeMismatch(_) => "type_mismatch",
        EvalError::UnboundVariable(_) => "unbound_variable",
        EvalError::BudgetExhausted => "budget_exhausted",
        EvalError::Capacity(_) => "capacity",
        EvalError::UnsupportedFragment(_) => "unsupported_fragment",
        EvalError::Cancelled => "cancelled",
        EvalError::DeadlineExceeded => "deadline_exceeded",
    }
}

fn error_json(kind: &str, message: &str) -> Json {
    Json::obj(vec![
        ("kind", Json::Str(kind.to_owned())),
        ("message", Json::Str(message.to_owned())),
    ])
}

/// A top-level response: the `id` (if any), `ok`, then `fields`.
fn response(id: Option<&Json>, ok: bool, fields: Vec<(&str, Json)>) -> Json {
    let mut out = Vec::with_capacity(fields.len() + 2);
    if let Some(id) = id {
        out.push(("id".to_owned(), id.clone()));
    }
    out.push(("ok".to_owned(), Json::Bool(ok)));
    out.extend(fields.into_iter().map(|(k, v)| (k.to_owned(), v)));
    Json::Obj(out)
}

/// A successful top-level response.
pub(crate) fn ok(id: Option<&Json>, fields: Vec<(&str, Json)>) -> Json {
    response(id, true, fields)
}

/// A request-level failure: `{"id":…,"ok":false,"error":{"kind","message"}}`.
pub(crate) fn fail(id: Option<&Json>, kind: &str, message: &str) -> Json {
    response(id, false, vec![("error", error_json(kind, message))])
}

/// One query's failure slot inside an `eval` response's `results`.
pub(crate) fn query_error(e: &EvalError) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", error_json(eval_error_kind(e), &e.to_string())),
    ])
}

/// One query's value slot inside an `eval` response's `results`, with at
/// most `limit` node-set string values.
pub(crate) fn render_value(doc: &Document, value: &Value, limit: usize) -> Json {
    match value {
        Value::Number(n) => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("type", Json::Str("number".to_owned())),
            ("value", Json::Num(*n)),
        ]),
        Value::String(s) => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("type", Json::Str("string".to_owned())),
            ("value", Json::Str(s.clone())),
        ]),
        Value::Boolean(b) => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("type", Json::Str("boolean".to_owned())),
            ("value", Json::Bool(*b)),
        ]),
        Value::NodeSet(nodes) => {
            let values: Vec<Json> = nodes
                .iter()
                .take(limit)
                .map(|n| Json::Str(doc.string_value(n).to_string()))
                .collect();
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("type", Json::Str("node-set".to_owned())),
                ("count", Json::num(nodes.len() as u64)),
                ("values", Json::Arr(values)),
            ])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(line: &str) -> EvalRequest {
        match decode_request(line).expect("decodes").op {
            Op::Eval(eval) => eval,
            other => panic!("{line}: not an eval: {other:?}"),
        }
    }

    fn reject(line: &str) -> Reject {
        decode_request(line).expect_err("rejected")
    }

    #[test]
    fn eval_decodes_every_field() {
        let request = decode_request(
            r#"{"id":[7],"op":"eval","doc":"d","queries":["//a","//b"],"timeout_ms":5,"threads":3,"limit":2}"#,
        )
        .unwrap();
        assert_eq!(request.id, Some(Json::Arr(vec![Json::Num(7.0)])));
        assert_eq!(request.endpoint(), Endpoint::Batch);
        assert_eq!(
            request.op,
            Op::Eval(EvalRequest {
                texts: vec!["//a".to_owned(), "//b".to_owned()],
                doc: "d".to_owned(),
                timeout_ms: Some(5),
                threads: 3,
                limit: 2,
            })
        );
    }

    #[test]
    fn op_defaults_and_endpoints() {
        // `op` may be omitted beside a query; "query" is an alias.
        for line in [r#"{"doc":"d","query":"//a"}"#, r#"{"op":"query","doc":"d","query":"//a"}"#] {
            let request = decode_request(line).unwrap();
            assert_eq!((request.endpoint(), request.id), (Endpoint::Eval, None), "{line}");
        }
        for (line, op, endpoint) in [
            (r#"{"op":"stats"}"#, Op::Stats, Endpoint::Stats),
            (r#"{"op":"stats","query":"//a"}"#, Op::Stats, Endpoint::Stats),
            (r#"{"op":"ping"}"#, Op::Ping, Endpoint::Ping),
            (r#"{"op":"shutdown"}"#, Op::Shutdown, Endpoint::Ping),
        ] {
            let request = decode_request(line).unwrap();
            assert_eq!(request.endpoint(), endpoint, "{line}");
            assert_eq!(request.op, op, "{line}");
        }
    }

    #[test]
    fn threads_and_limit_fall_back_and_clamp() {
        let e = eval(r#"{"doc":"d","query":"//a"}"#);
        assert_eq!((e.timeout_ms, e.threads, e.limit), (None, 1, DEFAULT_VALUE_LIMIT));
        let e = eval(r#"{"doc":"d","query":"//a","threads":"x","limit":-1}"#);
        assert_eq!((e.threads, e.limit), (1, DEFAULT_VALUE_LIMIT));
        let e = eval(r#"{"doc":"d","query":"//a","threads":1e12,"limit":1e12}"#);
        assert_eq!((e.threads, e.limit), (u32::MAX, MAX_VALUE_LIMIT));
        let e = eval(r#"{"doc":"d","query":"//a","threads":0,"limit":0}"#);
        assert_eq!((e.threads, e.limit), (0, 0));
        // `query` wins over `queries`, whatever `queries` holds.
        assert_eq!(eval(r#"{"doc":"d","query":"//a","queries":[1]}"#).texts, ["//a"]);
    }

    #[test]
    fn rejects_carry_the_id_and_the_endpoint() {
        let id = Some(Json::Num(1.0));
        for (line, want_id, endpoint, message) in [
            ("not json", None, Endpoint::Eval, "bad JSON: invalid literal at offset 0"),
            ("[1]", None, Endpoint::Eval, "request must be a JSON object"),
            (r#"{"id":1,"op":null}"#, id.clone(), Endpoint::Eval, "op must be a string"),
            (r#"{"id":1,"op":"nope"}"#, id.clone(), Endpoint::Eval, "unknown op \"nope\""),
            ("{}", None, Endpoint::Eval, "unknown op \"\""),
            (
                r#"{"id":1,"doc":"d","query":5}"#,
                id.clone(),
                Endpoint::Eval,
                "query must be a string",
            ),
            (r#"{"doc":"d","queries":["//a",1]}"#, None, Endpoint::Eval, "queries must be strings"),
            (
                r#"{"doc":"d","queries":[]}"#,
                None,
                Endpoint::Eval,
                "queries must be a non-empty array",
            ),
            (r#"{"op":"eval","doc":"d"}"#, None, Endpoint::Eval, "eval needs query or queries"),
            (r#"{"query":"//a","doc":7}"#, None, Endpoint::Eval, "eval needs a doc name"),
            // Once the texts are known, a batch is rejected as a batch.
            (
                r#"{"id":1,"queries":["//a","//b"]}"#,
                id.clone(),
                Endpoint::Batch,
                "eval needs a doc name",
            ),
            (
                r#"{"doc":"d","queries":["//a","//b"],"timeout_ms":1.5}"#,
                None,
                Endpoint::Batch,
                "timeout_ms must be a non-negative integer",
            ),
        ] {
            let r = reject(line);
            assert_eq!(
                (r.id, r.endpoint, r.message.as_str()),
                (want_id, endpoint, message),
                "{line}"
            );
        }
        assert_eq!(
            reject(r#"{"id":"x","op":1}"#).render().render(),
            r#"{"id":"x","ok":false,"error":{"kind":"invalid_request","message":"op must be a string"}}"#
        );
    }
}
