//! Seeded `catalog` documents and the oracle that answers queries over
//! them.
//!
//! A [`Catalog`] is generated from a seed as a plain Rust model, then
//! serialized to XML. The benchmark's queries are built from a small
//! query language ([`Query`]) that renders both to XPath text and to an
//! [`Answer`] computed from the model alone, so the oracle shares no code
//! with the XPath engine it checks.
//!
//! The document shape: nested `section[@name,@kind]` elements holding
//! `item[@id,@price,@qty,@sale?]` elements; each item has a `title`, 0–3
//! distinct `tag`s, an optional `review/rating`, an optional `stock` and
//! an optional `related` list of item IDREFs.

use std::fmt::Write as _;

use xpath_xml::rng::Rng;

/// Number of distinct `@kind` values (`k0`…`k7`).
pub const KINDS: u32 = 8;
/// Number of distinct tag values (`t0`…`t9`).
pub const TAGS: u32 = 10;
/// Node-set results carry at most this many string values (the
/// server's default `limit`); `count` is always exact.
pub const VALUE_LIMIT: usize = 16;

const WORDS: [&str; 16] = [
    "amber", "basalt", "cedar", "delta", "ember", "fjord", "garnet", "harbor", "iris", "juniper",
    "kestrel", "lumen", "marble", "nectar", "onyx", "pebble",
];

/// One `item` element.
#[derive(Clone, Debug)]
pub struct Item {
    /// Position in document order; the `@id` is `i{id}`.
    pub id: u32,
    /// `@price`, 1..=1000.
    pub price: u32,
    /// `@qty`, 0..1000.
    pub qty: u32,
    /// Whether `@sale="yes"` is present.
    pub sale: bool,
    /// Text of the `title` child.
    pub title: String,
    /// Distinct tag numbers, in child order.
    pub tags: Vec<u32>,
    /// Text of `review/rating` (1..=5), if the item has a review.
    pub rating: Option<u32>,
    /// Text of `stock`, if present.
    pub stock: Option<u32>,
    /// IDREFs in the `related` child (absent when empty).
    pub related: Vec<u32>,
    /// Bit `k` is set when some ancestor section has `@kind = k{k}`.
    pub kinds: u32,
}

impl Item {
    /// The XPath string-value of the `item` element: its descendant
    /// text in document order.
    pub fn string_value(&self) -> String {
        let mut s = self.title.clone();
        for t in &self.tags {
            let _ = write!(s, "t{t}");
        }
        if let Some(r) = self.rating {
            let _ = write!(s, "{r}");
        }
        if let Some(st) = self.stock {
            let _ = write!(s, "{st}");
        }
        s.push_str(&self.related_text());
        s
    }

    fn related_text(&self) -> String {
        let refs: Vec<String> = self.related.iter().map(|r| format!("i{r}")).collect();
        refs.join(" ")
    }
}

/// One `section` element.
#[derive(Clone, Debug)]
pub struct Section {
    /// The `@name` is `s{name}`; numbered in document order.
    pub name: u32,
    /// The `@kind` is `k{kind}`.
    pub kind: u32,
    /// Direct child items (indexes into [`Catalog::items`]), before the
    /// subsections in child order.
    pub items: Vec<u32>,
    /// Nested sections.
    pub subs: Vec<Section>,
}

/// A generated catalog: top-level sections plus every item in document
/// order.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    /// Children of the `catalog` root element.
    pub sections: Vec<Section>,
    /// All items, indexed by [`Item::id`].
    pub items: Vec<Item>,
}

impl Catalog {
    /// Generate a catalog of exactly `n_items` items from `seed`.
    pub fn generate(seed: u64, n_items: usize) -> Catalog {
        let mut rng = Rng::seed_from_u64(seed);
        let mut cat = Catalog::default();
        let mut next_section = 0;
        while cat.items.len() < n_items {
            let s = cat.section(&mut rng, 0, 0, n_items, &mut next_section);
            cat.sections.push(s);
        }
        // IDREFs point anywhere in the finished catalog.
        for i in 0..cat.items.len() {
            let n = rng.random_range(0usize..=3);
            let mut related: Vec<u32> = Vec::with_capacity(n);
            for _ in 0..n {
                let r = u32::try_from(rng.random_range(0..cat.items.len())).expect("item count");
                if !related.contains(&r) {
                    related.push(r);
                }
            }
            cat.items[i].related = related;
        }
        cat
    }

    fn section(
        &mut self,
        rng: &mut Rng,
        depth: u32,
        kinds: u32,
        n_items: usize,
        next_section: &mut u32,
    ) -> Section {
        let name = *next_section;
        *next_section += 1;
        let kind = rng.random_range(0u32..KINDS);
        let kinds = kinds | (1 << kind);
        let direct = rng.random_range(2usize..=10).min(n_items - self.items.len());
        let mut items = Vec::with_capacity(direct);
        for _ in 0..direct {
            let id = u32::try_from(self.items.len()).expect("item count");
            self.items.push(item(rng, id, kinds));
            items.push(id);
        }
        let mut subs = Vec::new();
        if depth < 2 {
            for _ in 0..rng.random_range(0usize..=3) {
                if self.items.len() >= n_items {
                    break;
                }
                subs.push(self.section(rng, depth + 1, kinds, n_items, next_section));
            }
        }
        Section { name, kind, items, subs }
    }

    /// Serialize as XML (no insignificant whitespace, so the model's
    /// string-values are exact).
    pub fn to_xml(&self) -> String {
        let mut out = String::with_capacity(self.items.len() * 200);
        out.push_str("<catalog>");
        for s in &self.sections {
            self.write_section(s, &mut out);
        }
        out.push_str("</catalog>");
        out
    }

    fn write_section(&self, s: &Section, out: &mut String) {
        let _ = write!(out, "<section name=\"s{}\" kind=\"k{}\">", s.name, s.kind);
        for &i in &s.items {
            let it = &self.items[i as usize];
            let _ =
                write!(out, "<item id=\"i{}\" price=\"{}\" qty=\"{}\"", it.id, it.price, it.qty);
            if it.sale {
                out.push_str(" sale=\"yes\"");
            }
            let _ = write!(out, "><title>{}</title>", it.title);
            for t in &it.tags {
                let _ = write!(out, "<tag>t{t}</tag>");
            }
            if let Some(r) = it.rating {
                let _ = write!(out, "<review><rating>{r}</rating></review>");
            }
            if let Some(st) = it.stock {
                let _ = write!(out, "<stock>{st}</stock>");
            }
            if !it.related.is_empty() {
                let _ = write!(out, "<related>{}</related>", it.related_text());
            }
            out.push_str("</item>");
        }
        for sub in &s.subs {
            self.write_section(sub, out);
        }
        out.push_str("</section>");
    }

    /// Every section in document order.
    pub fn all_sections(&self) -> Vec<&Section> {
        fn walk<'a>(s: &'a Section, out: &mut Vec<&'a Section>) {
            out.push(s);
            for sub in &s.subs {
                walk(sub, out);
            }
        }
        let mut out = Vec::new();
        for s in &self.sections {
            walk(s, &mut out);
        }
        out
    }
}

fn item(rng: &mut Rng, id: u32, kinds: u32) -> Item {
    let title = format!(
        "{} {} {id}",
        WORDS[rng.random_range(0..WORDS.len())],
        WORDS[rng.random_range(0..WORDS.len())]
    );
    let mut tags = Vec::new();
    for _ in 0..rng.random_range(0usize..=3) {
        let t = rng.random_range(0u32..TAGS);
        if !tags.contains(&t) {
            tags.push(t);
        }
    }
    Item {
        id,
        price: 1 + rng.random_range(0u32..1000),
        qty: rng.random_range(0u32..1000),
        sale: rng.random_bool(0.3),
        title,
        tags,
        rating: rng.random_bool(0.6).then(|| 1 + rng.random_range(0u32..5)),
        stock: rng.random_bool(0.8).then(|| rng.random_range(0u32..100)),
        related: Vec::new(),
        kinds,
    }
}

// ---------------------------------------------------------------------
// Queries and their answers
// ---------------------------------------------------------------------

/// The expected result of one query, in the shape the server renders.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    /// `{"type":"number","value":…}`.
    Number(f64),
    /// `{"type":"boolean","value":…}`.
    Bool(bool),
    /// `{"type":"node-set","count":…,"values":[…]}` — `values` holds the
    /// first [`VALUE_LIMIT`] string-values in document order.
    Nodes {
        /// Exact node count.
        count: usize,
        /// Leading string-values.
        values: Vec<String>,
    },
}

impl Answer {
    fn nodes(values: impl IntoIterator<Item = String>) -> Answer {
        let mut count = 0;
        let mut kept = Vec::new();
        for v in values {
            if count < VALUE_LIMIT {
                kept.push(v);
            }
            count += 1;
        }
        Answer::Nodes { count, values: kept }
    }
}

/// A predicate on an `item`.
#[derive(Clone, Copy, Debug)]
pub enum Pred {
    /// `[@sale]`
    Sale,
    /// `[tag='t{n}']`
    Tag(u32),
    /// `[review/rating={n}]`
    Rating(u32),
    /// `[not(stock)]`
    NoStock,
    /// `[@qty>{n}]`
    QtyGt(u32),
    /// `[@qty={n}]`
    QtyEq(u32),
    /// `[@price<{n}]`
    PriceLt(u32),
    /// `[@price>{n}]`
    PriceGt(u32),
}

impl Pred {
    fn render(self, out: &mut String) {
        let _ = match self {
            Pred::Sale => write!(out, "[@sale]"),
            Pred::Tag(t) => write!(out, "[tag='t{t}']"),
            Pred::Rating(r) => write!(out, "[review/rating={r}]"),
            Pred::NoStock => write!(out, "[not(stock)]"),
            Pred::QtyGt(n) => write!(out, "[@qty>{n}]"),
            Pred::QtyEq(n) => write!(out, "[@qty={n}]"),
            Pred::PriceLt(n) => write!(out, "[@price<{n}]"),
            Pred::PriceGt(n) => write!(out, "[@price>{n}]"),
        };
    }

    fn holds(self, it: &Item) -> bool {
        match self {
            Pred::Sale => it.sale,
            Pred::Tag(t) => it.tags.contains(&t),
            Pred::Rating(r) => it.rating == Some(r),
            Pred::NoStock => it.stock.is_none(),
            Pred::QtyGt(n) => it.qty > n,
            Pred::QtyEq(n) => it.qty == n,
            Pred::PriceLt(n) => it.price < n,
            Pred::PriceGt(n) => it.price > n,
        }
    }
}

/// What an item path selects from each matching item.
#[derive(Clone, Copy, Debug)]
pub enum Tail {
    /// The `item` element itself.
    Item,
    /// `/title`
    Title,
    /// `/@price`
    Price,
    /// `/@qty`
    Qty,
}

/// The function wrapped around a path (or none).
#[derive(Clone, Copy, Debug)]
pub enum Agg {
    /// The bare path.
    Nodes,
    /// `count(…)`
    Count,
    /// `sum(…)`
    Sum,
    /// `boolean(…)`
    Boolean,
}

/// A query the oracle can answer from the model.
#[derive(Clone, Debug)]
pub enum Query {
    /// `[agg(]//section[@kind='k{kind}']//item[preds…]tail[)]`, or
    /// `//item[preds…]tail` without a kind.
    Items {
        /// Restrict to items under a section of this kind.
        kind: Option<u32>,
        /// Item predicates, in order.
        preds: Vec<Pred>,
        /// What each matching item contributes.
        tail: Tail,
        /// Wrapping function.
        agg: Agg,
    },
    /// `id('i{n}')/title`
    IdTitle(u32),
    /// `/catalog/section[{s}]/item[{i}]/@price` (1-based positions).
    PosPrice(usize, usize),
    /// `id(id('i{n}')/related)/title` — one IDREF hop.
    RelatedTitles(u32),
    /// `count(//review[rating={n}])`
    CountReviews(u32),
    /// `//section[@name='s{n}']/@kind`
    SectionKind(u32),
    /// `sum(//stock)`
    SumStock,
    /// `count(//tag[.='t{n}'])`
    CountTag(u32),
    /// `/catalog/section[{s}]/@name` (1-based position).
    TopName(usize),
}

impl Query {
    /// The XPath text.
    pub fn text(&self) -> String {
        let mut s = String::new();
        let _ = match self {
            Query::Items { kind, preds, tail, agg } => {
                let wrap = match agg {
                    Agg::Nodes => "",
                    Agg::Count => "count(",
                    Agg::Sum => "sum(",
                    Agg::Boolean => "boolean(",
                };
                s.push_str(wrap);
                match kind {
                    Some(k) => s.push_str(&format!("//section[@kind='k{k}']//item")),
                    None => s.push_str("//item"),
                }
                for p in preds {
                    p.render(&mut s);
                }
                s.push_str(match tail {
                    Tail::Item => "",
                    Tail::Title => "/title",
                    Tail::Price => "/@price",
                    Tail::Qty => "/@qty",
                });
                if !wrap.is_empty() {
                    s.push(')');
                }
                Ok(())
            }
            Query::IdTitle(n) => write!(s, "id('i{n}')/title"),
            Query::PosPrice(sec, it) => write!(s, "/catalog/section[{sec}]/item[{it}]/@price"),
            Query::RelatedTitles(n) => write!(s, "id(id('i{n}')/related)/title"),
            Query::CountReviews(r) => write!(s, "count(//review[rating={r}])"),
            Query::SectionKind(n) => write!(s, "//section[@name='s{n}']/@kind"),
            Query::SumStock => write!(s, "sum(//stock)"),
            Query::CountTag(t) => write!(s, "count(//tag[.='t{t}'])"),
            Query::TopName(sec) => write!(s, "/catalog/section[{sec}]/@name"),
        };
        s
    }

    /// The answer, computed from the model alone.
    pub fn answer(&self, cat: &Catalog) -> Answer {
        match self {
            Query::Items { kind, preds, tail, agg } => {
                let matching = cat.items.iter().filter(|it| {
                    kind.is_none_or(|k| it.kinds & (1 << k) != 0)
                        && preds.iter().all(|p| p.holds(it))
                });
                let values = matching.map(|it| match tail {
                    Tail::Item => it.string_value(),
                    Tail::Title => it.title.clone(),
                    Tail::Price => it.price.to_string(),
                    Tail::Qty => it.qty.to_string(),
                });
                match agg {
                    Agg::Nodes => Answer::nodes(values),
                    #[allow(clippy::cast_precision_loss)]
                    Agg::Count => Answer::Number(values.count() as f64),
                    Agg::Sum => Answer::Number(
                        values.map(|v| v.parse::<f64>().expect("numeric tail")).sum(),
                    ),
                    Agg::Boolean => Answer::Bool(values.count() > 0),
                }
            }
            Query::IdTitle(n) => {
                Answer::nodes(cat.items.get(*n as usize).map(|it| it.title.clone()))
            }
            Query::PosPrice(sec, it) => Answer::nodes(
                cat.sections
                    .get(sec - 1)
                    .and_then(|s| s.items.get(it - 1))
                    .map(|&i| cat.items[i as usize].price.to_string()),
            ),
            Query::RelatedTitles(n) => {
                let mut refs =
                    cat.items.get(*n as usize).map(|it| it.related.clone()).unwrap_or_default();
                refs.sort_unstable();
                refs.dedup();
                Answer::nodes(refs.into_iter().map(|r| cat.items[r as usize].title.clone()))
            }
            #[allow(clippy::cast_precision_loss)]
            Query::CountReviews(r) => {
                Answer::Number(cat.items.iter().filter(|it| it.rating == Some(*r)).count() as f64)
            }
            Query::SectionKind(n) => Answer::nodes(
                cat.all_sections()
                    .into_iter()
                    .filter(|s| s.name == *n)
                    .map(|s| format!("k{}", s.kind)),
            ),
            Query::SumStock => {
                Answer::Number(cat.items.iter().filter_map(|it| it.stock).map(f64::from).sum())
            }
            #[allow(clippy::cast_precision_loss)]
            Query::CountTag(t) => {
                Answer::Number(cat.items.iter().filter(|it| it.tags.contains(t)).count() as f64)
            }
            Query::TopName(sec) => {
                Answer::nodes(cat.sections.get(sec - 1).map(|s| format!("s{}", s.name)))
            }
        }
    }
}
