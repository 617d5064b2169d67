//! Records and sources.

use rlb_textsim::TokenSet;

/// One entity description: a dense vector of attribute values aligned with
/// the owning [`Source`]'s attribute list. The empty string denotes a
/// missing value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Source-local identifier (stable across serialization).
    pub id: u32,
    /// Attribute values, one per source attribute, `""` = missing.
    pub values: Vec<String>,
}

impl Record {
    /// Creates a record from owned values.
    pub fn new(id: u32, values: Vec<String>) -> Self {
        Record { id, values }
    }

    /// Concatenation of all attribute values, space-separated — the
    /// schema-agnostic "sequence" representation used by Algorithm 1 and the
    /// transformer-style matchers.
    pub fn full_text(&self) -> String {
        let mut out = String::with_capacity(self.values.iter().map(|v| v.len() + 1).sum());
        for v in &self.values {
            if v.is_empty() {
                continue;
            }
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(v);
        }
        out
    }

    /// Lower-cased token set over all attribute values.
    pub fn token_set(&self) -> TokenSet {
        TokenSet::from_text(&self.full_text())
    }

    /// Lower-cased tokens (with duplicates) over all attribute values.
    pub fn tokens(&self) -> Vec<String> {
        rlb_textsim::tokens(&self.full_text())
    }

    /// Value of attribute `a`, or `""` when out of range.
    pub fn value(&self, a: usize) -> &str {
        self.values.get(a).map(String::as_str).unwrap_or("")
    }
}

rlb_util::impl_json!(Record { id, values });

/// One duplicate-free database participating in record linkage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Source {
    /// Human-readable name (e.g. `"Abt"`, `"DBLP"`).
    pub name: String,
    /// Attribute (column) names shared by every record.
    pub attributes: Vec<String>,
    /// The records; `records[i].id == i as u32` is maintained by
    /// [`Source::push`] but not required for externally built sources.
    pub records: Vec<Record>,
}

impl Source {
    /// Empty source with the given schema.
    pub fn new(name: impl Into<String>, attributes: Vec<String>) -> Self {
        Source {
            name: name.into(),
            attributes,
            records: Vec::new(),
        }
    }

    /// Appends a record built from attribute values, assigning the next id.
    /// Panics if the value count does not match the schema.
    pub fn push(&mut self, values: Vec<String>) -> u32 {
        assert_eq!(
            values.len(),
            self.attributes.len(),
            "record arity must match source schema"
        );
        let id = self.records.len() as u32;
        self.records.push(Record::new(id, values));
        id
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the source has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Record by id; panics when out of range (ids come from within the
    /// task, so a miss is a logic error, not an input error).
    pub fn record(&self, id: u32) -> &Record {
        &self.records[id as usize]
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }
}

rlb_util::impl_json!(Source {
    name,
    attributes,
    records
});

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_source() -> Source {
        let mut s = Source::new(
            "Products",
            vec!["title".into(), "brand".into(), "price".into()],
        );
        s.push(vec!["iPhone 13".into(), "Apple".into(), "799".into()]);
        s.push(vec!["Galaxy S21".into(), "".into(), "749".into()]);
        s
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let s = sample_source();
        assert_eq!(s.len(), 2);
        assert_eq!(s.arity(), 3);
        assert_eq!(s.record(0).id, 0);
        assert_eq!(s.record(1).id, 1);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn push_rejects_wrong_arity() {
        let mut s = sample_source();
        s.push(vec!["too".into(), "few".into()]);
    }

    #[test]
    fn full_text_skips_missing_values() {
        let s = sample_source();
        assert_eq!(s.record(1).full_text(), "Galaxy S21 749");
    }

    #[test]
    fn token_set_is_schema_agnostic() {
        let s = sample_source();
        let t = s.record(0).token_set();
        assert!(t.contains("iphone"));
        assert!(t.contains("apple"));
        assert!(t.contains("799"));
    }

    #[test]
    fn value_and_missing_are_total() {
        let s = sample_source();
        assert_eq!(s.record(1).value(1), "");
        assert_eq!(s.record(1).value(0), "Galaxy S21");
        assert_eq!(s.record(1).value(99), "");
    }

    #[test]
    fn json_roundtrip() {
        let s = sample_source();
        let json = rlb_util::json::to_string(&s);
        let back: Source = rlb_util::json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
