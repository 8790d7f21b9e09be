//! The XPath 1.0 core function library: the effective semantics functions
//! `F[[Op]]` of Table II plus the number/string functions the paper
//! references from the W3C recommendation (floor, ceiling, round, concat,
//! starts-with, contains, substring, substring-before/-after,
//! string-length, normalize-space, translate, lang) and the name functions
//! (name, local-name, namespace-uri) that the Extended Wadler fragment's
//! Restriction 1 singles out.

use xpath_xml::{Document, NodeId};

use crate::context::{Context, EvalError, EvalResult};
use crate::nodeset::NodeSet;
use crate::value::{str_to_number, Value};

/// Is `name` a known core-library function?
pub fn is_known(name: &str) -> bool {
    KNOWN.contains(&name)
}

/// All implemented function names.
pub const KNOWN: &[&str] = &[
    "last",
    "position",
    "count",
    "id",
    "local-name",
    "namespace-uri",
    "name",
    "string",
    "concat",
    "starts-with",
    "contains",
    "substring-before",
    "substring-after",
    "substring",
    "string-length",
    "normalize-space",
    "translate",
    "boolean",
    "not",
    "true",
    "false",
    "lang",
    "number",
    "sum",
    "floor",
    "ceiling",
    "round",
];

fn arity_err(function: &str, got: usize, expected: &'static str) -> EvalError {
    EvalError::WrongArity { function: function.to_string(), got, expected }
}

fn need(args: &[Value], function: &str, n: usize) -> EvalResult<()> {
    if args.len() == n {
        Ok(())
    } else {
        Err(arity_err(
            function,
            args.len(),
            match n {
                0 => "0",
                1 => "1",
                2 => "2",
                3 => "3",
                _ => "fixed",
            },
        ))
    }
}

/// XPath `round`: half rounds toward +∞; NaN and infinities pass through.
pub fn xpath_round(v: f64) -> f64 {
    if v.is_nan() || v.is_infinite() {
        return v;
    }
    // (v + 0.5).floor() implements round-half-up including negatives:
    // round(-0.5) = -0.0, round(-1.5) = -1.
    (v + 0.5).floor()
}

/// Apply a core-library function to already-evaluated arguments in context
/// `ctx`. Zero-argument forms of `string`, `number`, `string-length`,
/// `normalize-space`, `name`, `local-name` and `namespace-uri` operate on
/// the context node. Arguments are borrowed, so a caller may pass them
/// from a stack buffer without allocating.
pub fn apply(doc: &Document, name: &str, args: &[Value], ctx: &Context) -> EvalResult<Value> {
    match name {
        // ----- node-set functions -----
        "last" => {
            need(args, name, 0)?;
            Ok(Value::Number(ctx.size as f64))
        }
        "position" => {
            need(args, name, 0)?;
            Ok(Value::Number(ctx.position as f64))
        }
        "count" => {
            need(args, name, 1)?;
            match &args[0] {
                Value::NodeSet(s) => Ok(Value::Number(s.len() as f64)),
                other => Err(EvalError::TypeMismatch(format!(
                    "count() requires a node set, got {}",
                    other.type_name()
                ))),
            }
        }
        "sum" => {
            need(args, name, 1)?;
            match &args[0] {
                Value::NodeSet(s) => {
                    Ok(Value::Number(s.iter().map(|n| str_to_number(doc.string_value(n))).sum()))
                }
                other => Err(EvalError::TypeMismatch(format!(
                    "sum() requires a node set, got {}",
                    other.type_name()
                ))),
            }
        }
        "id" => {
            need(args, name, 1)?;
            match &args[0] {
                // F[[id : nset → nset]](S) := ∪_{n∈S} F[[id]](strval(n)).
                Value::NodeSet(s) => {
                    let mut out = NodeSet::new();
                    for n in s {
                        out.union_with(&NodeSet::from_sorted(doc.deref_ids(doc.string_value(n))));
                    }
                    Ok(Value::NodeSet(out))
                }
                // F[[id : str → nset]](s) := deref_ids(s).
                other => Ok(Value::NodeSet(NodeSet::from_sorted(
                    doc.deref_ids(&other.to_xpath_string(doc)),
                ))),
            }
        }
        "name" | "local-name" | "namespace-uri" => {
            if args.len() > 1 {
                return Err(arity_err(name, args.len(), "0 or 1"));
            }
            let node: Option<NodeId> = match args.first() {
                None => Some(ctx.node),
                Some(Value::NodeSet(s)) => s.first(),
                Some(other) => {
                    return Err(EvalError::TypeMismatch(format!(
                        "{name}() requires a node set, got {}",
                        other.type_name()
                    )))
                }
            };
            let full = node.and_then(|n| doc.name(n)).unwrap_or("");
            let out = match name {
                "name" => full.to_string(),
                "local-name" => full.rsplit(':').next().unwrap_or("").to_string(),
                // The data model does not track namespace URIs (the paper
                // treats namespaces as orthogonal, footnote 6); the function
                // exists so Restriction 1 of §11 has something to restrict.
                _ => String::new(),
            };
            Ok(Value::String(out))
        }
        // ----- string functions -----
        "string" => {
            if args.len() > 1 {
                return Err(arity_err(name, args.len(), "0 or 1"));
            }
            match args.first() {
                None => Ok(Value::String(doc.string_value(ctx.node).to_string())),
                Some(v) => Ok(Value::String(v.to_xpath_string(doc))),
            }
        }
        "concat" => {
            if args.len() < 2 {
                return Err(arity_err(name, args.len(), "2 or more"));
            }
            let mut out = String::new();
            for a in args {
                out.push_str(&a.to_xpath_string(doc));
            }
            Ok(Value::String(out))
        }
        "starts-with" => {
            need(args, name, 2)?;
            let a = args[0].to_xpath_string(doc);
            let b = args[1].to_xpath_string(doc);
            Ok(Value::Boolean(a.starts_with(&b)))
        }
        "contains" => {
            need(args, name, 2)?;
            let a = args[0].to_xpath_string(doc);
            let b = args[1].to_xpath_string(doc);
            Ok(Value::Boolean(a.contains(&b)))
        }
        "substring-before" => {
            need(args, name, 2)?;
            let a = args[0].to_xpath_string(doc);
            let b = args[1].to_xpath_string(doc);
            Ok(Value::String(a.find(&b).map(|i| a[..i].to_string()).unwrap_or_default()))
        }
        "substring-after" => {
            need(args, name, 2)?;
            let a = args[0].to_xpath_string(doc);
            let b = args[1].to_xpath_string(doc);
            Ok(Value::String(a.find(&b).map(|i| a[i + b.len()..].to_string()).unwrap_or_default()))
        }
        "substring" => {
            if args.len() != 2 && args.len() != 3 {
                return Err(arity_err(name, args.len(), "2 or 3"));
            }
            let s = args[0].to_xpath_string(doc);
            let start = xpath_round(args[1].to_number(doc));
            let end: f64 = match args.get(2) {
                Some(len) => start + xpath_round(len.to_number(doc)),
                None => f64::INFINITY,
            };
            // 1-based character positions p with round(start) ≤ p < end.
            let out: String = s
                .chars()
                .enumerate()
                .filter(|(i, _)| {
                    let p = (*i + 1) as f64;
                    p >= start && p < end
                })
                .map(|(_, c)| c)
                .collect();
            Ok(Value::String(out))
        }
        "string-length" => {
            if args.len() > 1 {
                return Err(arity_err(name, args.len(), "0 or 1"));
            }
            let s = match args.first() {
                None => doc.string_value(ctx.node).to_string(),
                Some(v) => v.to_xpath_string(doc),
            };
            Ok(Value::Number(s.chars().count() as f64))
        }
        "normalize-space" => {
            if args.len() > 1 {
                return Err(arity_err(name, args.len(), "0 or 1"));
            }
            let s = match args.first() {
                None => doc.string_value(ctx.node).to_string(),
                Some(v) => v.to_xpath_string(doc),
            };
            Ok(Value::String(s.split_whitespace().collect::<Vec<_>>().join(" ")))
        }
        "translate" => {
            need(args, name, 3)?;
            let s = args[0].to_xpath_string(doc);
            let from: Vec<char> = args[1].to_xpath_string(doc).chars().collect();
            let to: Vec<char> = args[2].to_xpath_string(doc).chars().collect();
            let out: String = s
                .chars()
                .filter_map(|c| match from.iter().position(|&f| f == c) {
                    Some(i) => to.get(i).copied(),
                    None => Some(c),
                })
                .collect();
            Ok(Value::String(out))
        }
        // ----- boolean functions -----
        "boolean" => {
            need(args, name, 1)?;
            Ok(Value::Boolean(args[0].to_boolean()))
        }
        "not" => {
            need(args, name, 1)?;
            Ok(Value::Boolean(!args[0].to_boolean()))
        }
        "true" => {
            need(args, name, 0)?;
            Ok(Value::Boolean(true))
        }
        "false" => {
            need(args, name, 0)?;
            Ok(Value::Boolean(false))
        }
        "lang" => {
            need(args, name, 1)?;
            let want = args[0].to_xpath_string(doc).to_ascii_lowercase();
            let have = doc.lang(ctx.node).map(str::to_ascii_lowercase);
            Ok(Value::Boolean(match have {
                None => false,
                Some(h) => {
                    h == want
                        || (h.starts_with(&want) && h.as_bytes().get(want.len()) == Some(&b'-'))
                }
            }))
        }
        // ----- number functions -----
        "number" => {
            if args.len() > 1 {
                return Err(arity_err(name, args.len(), "0 or 1"));
            }
            match args.first() {
                None => Ok(Value::Number(str_to_number(doc.string_value(ctx.node)))),
                Some(v) => Ok(Value::Number(v.to_number(doc))),
            }
        }
        "floor" => {
            need(args, name, 1)?;
            Ok(Value::Number(args[0].to_number(doc).floor()))
        }
        "ceiling" => {
            need(args, name, 1)?;
            Ok(Value::Number(args[0].to_number(doc).ceil()))
        }
        "round" => {
            need(args, name, 1)?;
            Ok(Value::Number(xpath_round(args[0].to_number(doc))))
        }
        _ => Err(EvalError::UnknownFunction(name.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_xml::generate::doc_figure8;
    use xpath_xml::Document;

    fn call(doc: &Document, name: &str, args: &[Value]) -> Value {
        let ctx = Context::of(doc.root());
        apply(doc, name, args, &ctx).unwrap_or_else(|e| panic!("{name}: {e}"))
    }

    fn s(v: &str) -> Value {
        Value::String(v.into())
    }

    fn n(v: f64) -> Value {
        Value::Number(v)
    }

    #[test]
    fn position_and_last() {
        let d = doc_figure8();
        let ctx = Context::new(d.root(), 3, 7);
        assert_eq!(apply(&d, "position", &[], &ctx).unwrap(), n(3.0));
        assert_eq!(apply(&d, "last", &[], &ctx).unwrap(), n(7.0));
    }

    #[test]
    fn count_and_sum() {
        let d = doc_figure8();
        let set: Vec<_> = [d.element_by_id("14").unwrap(), d.element_by_id("24").unwrap()].to_vec();
        assert_eq!(call(&d, "count", &[Value::NodeSet(set.clone().into())]), n(2.0));
        assert_eq!(call(&d, "sum", &[Value::NodeSet(set.into())]), n(200.0));
        assert!(apply(&d, "count", &[n(1.0)], &Context::of(d.root())).is_err());
    }

    #[test]
    fn id_function_both_signatures() {
        let d = doc_figure8();
        // id from string.
        let v = call(&d, "id", &[s("12 24")]);
        assert_eq!(
            v,
            Value::NodeSet(
                vec![d.element_by_id("12").unwrap(), d.element_by_id("24").unwrap()].into()
            )
        );
        // id from node set: strval(x23) = "13 14" → elements 13 and 14.
        let x23 = d.element_by_id("23").unwrap();
        let v = call(&d, "id", &[Value::NodeSet(vec![x23].into())]);
        assert_eq!(
            v,
            Value::NodeSet(
                vec![d.element_by_id("13").unwrap(), d.element_by_id("14").unwrap()].into()
            )
        );
    }

    #[test]
    fn string_functions() {
        let d = doc_figure8();
        assert_eq!(call(&d, "concat", &[s("a"), s("b"), n(3.0)]), s("ab3"));
        assert_eq!(call(&d, "starts-with", &[s("hello"), s("he")]), Value::Boolean(true));
        assert_eq!(call(&d, "contains", &[s("hello"), s("ell")]), Value::Boolean(true));
        assert_eq!(call(&d, "substring-before", &[s("1999/04/01"), s("/")]), s("1999"));
        assert_eq!(call(&d, "substring-after", &[s("1999/04/01"), s("/")]), s("04/01"));
        assert_eq!(call(&d, "string-length", &[s("héllo")]), n(5.0));
        assert_eq!(call(&d, "normalize-space", &[s("  a  b \t c ")]), s("a b c"));
        assert_eq!(call(&d, "translate", &[s("bar"), s("abc"), s("ABC")]), s("BAr"));
        assert_eq!(call(&d, "translate", &[s("--aaa--"), s("abc-"), s("ABC")]), s("AAA"));
    }

    #[test]
    fn substring_spec_examples() {
        let d = doc_figure8();
        // The W3C examples.
        assert_eq!(call(&d, "substring", &[s("12345"), n(2.0), n(3.0)]), s("234"));
        assert_eq!(call(&d, "substring", &[s("12345"), n(2.0)]), s("2345"));
        assert_eq!(call(&d, "substring", &[s("12345"), n(1.5), n(2.6)]), s("234"));
        assert_eq!(call(&d, "substring", &[s("12345"), n(0.0), n(3.0)]), s("12"));
        assert_eq!(call(&d, "substring", &[s("12345"), n(f64::NAN), n(3.0)]), s(""));
        assert_eq!(call(&d, "substring", &[s("12345"), n(1.0), n(f64::NAN)]), s(""));
        assert_eq!(call(&d, "substring", &[s("12345"), n(-42.0), n(f64::INFINITY)]), s("12345"));
        assert_eq!(
            call(&d, "substring", &[s("12345"), n(f64::NEG_INFINITY), n(f64::INFINITY)]),
            s("")
        );
    }

    #[test]
    fn boolean_functions() {
        let d = doc_figure8();
        assert_eq!(call(&d, "boolean", &[n(0.0)]), Value::Boolean(false));
        assert_eq!(call(&d, "not", &[Value::Boolean(false)]), Value::Boolean(true));
        assert_eq!(call(&d, "true", &[]), Value::Boolean(true));
        assert_eq!(call(&d, "false", &[]), Value::Boolean(false));
    }

    #[test]
    fn number_functions() {
        let d = doc_figure8();
        assert_eq!(call(&d, "number", &[s(" 12 ")]), n(12.0));
        assert_eq!(call(&d, "floor", &[n(2.6)]), n(2.0));
        assert_eq!(call(&d, "ceiling", &[n(2.2)]), n(3.0));
        assert_eq!(call(&d, "round", &[n(2.5)]), n(3.0));
        assert_eq!(call(&d, "round", &[n(-1.5)]), n(-1.0));
        assert_eq!(call(&d, "floor", &[s("x")]).to_string(), "NaN");
    }

    #[test]
    fn name_functions() {
        let d = doc_figure8();
        let b11 = d.element_by_id("11").unwrap();
        let ctx = Context::of(b11);
        assert_eq!(apply(&d, "name", &[], &ctx).unwrap(), s("b"));
        assert_eq!(apply(&d, "local-name", &[], &ctx).unwrap(), s("b"));
        assert_eq!(apply(&d, "name", &[Value::NodeSet(vec![].into())], &ctx).unwrap(), s(""));
        let d2 = Document::parse_str("<pre:x/>").unwrap();
        let x = d2.document_element().unwrap();
        let ctx2 = Context::of(x);
        assert_eq!(apply(&d2, "name", &[], &ctx2).unwrap(), s("pre:x"));
        assert_eq!(apply(&d2, "local-name", &[], &ctx2).unwrap(), s("x"));
    }

    #[test]
    fn lang_function() {
        let d = Document::parse_str(r#"<a xml:lang="en"><b/><c xml:lang="en-US"><d/></c></a>"#)
            .unwrap();
        let a = d.document_element().unwrap();
        let b = d.content_children(a).next().unwrap();
        let ctx = Context::of(b);
        assert_eq!(apply(&d, "lang", &[s("en")], &ctx).unwrap(), Value::Boolean(true));
        assert_eq!(apply(&d, "lang", &[s("EN")], &ctx).unwrap(), Value::Boolean(true));
        assert_eq!(apply(&d, "lang", &[s("de")], &ctx).unwrap(), Value::Boolean(false));
        let c = d.content_children(a).nth(1).unwrap();
        let inner = d.content_children(c).next().unwrap();
        let ctx = Context::of(inner);
        assert_eq!(apply(&d, "lang", &[s("en")], &ctx).unwrap(), Value::Boolean(true));
        assert_eq!(apply(&d, "lang", &[s("en-us")], &ctx).unwrap(), Value::Boolean(true));
        assert_eq!(apply(&d, "lang", &[s("us")], &ctx).unwrap(), Value::Boolean(false));
    }

    #[test]
    fn zero_arg_context_forms() {
        let d = doc_figure8();
        let x14 = d.element_by_id("14").unwrap();
        let ctx = Context::of(x14);
        assert_eq!(apply(&d, "string", &[], &ctx).unwrap(), s("100"));
        assert_eq!(apply(&d, "number", &[], &ctx).unwrap(), n(100.0));
        assert_eq!(apply(&d, "string-length", &[], &ctx).unwrap(), n(3.0));
        assert_eq!(apply(&d, "normalize-space", &[], &ctx).unwrap(), s("100"));
    }

    #[test]
    fn unknown_function_and_arity() {
        let d = doc_figure8();
        let ctx = Context::of(d.root());
        assert!(matches!(apply(&d, "frobnicate", &[], &ctx), Err(EvalError::UnknownFunction(_))));
        assert!(apply(&d, "concat", &[s("a")], &ctx).is_err());
        assert!(apply(&d, "translate", &[s("a")], &ctx).is_err());
        assert!(apply(&d, "position", &[n(1.0)], &ctx).is_err());
    }

    #[test]
    fn xpath_round_edges() {
        assert!(xpath_round(f64::NAN).is_nan());
        assert_eq!(xpath_round(f64::INFINITY), f64::INFINITY);
        assert_eq!(xpath_round(0.5), 1.0);
        assert_eq!(xpath_round(-0.5), 0.0);
        assert_eq!(xpath_round(-1.5), -1.0);
        assert_eq!(xpath_round(2.4), 2.0);
    }
}
