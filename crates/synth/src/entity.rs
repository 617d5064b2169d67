//! Ground-truth entity generation.
//!
//! Entities are organized into *families* (product lines, author
//! communities, movie franchises, restaurant chains): members of one family
//! share brand/venue/genre tokens and part of their naming material. Hard
//! negative pairs are drawn inside a family, which is what gives the
//! difficult benchmarks their near-duplicate non-matches (the "nearest
//! neighbours \[that\] are harder to classify" of the paper's introduction).

use crate::vocab;
use rlb_util::Prng;

/// The domain a benchmark's records are drawn from. Determines the schema
/// and the value shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Consumer products: `title, brand, model, price`.
    Product,
    /// Publications: `title, authors, venue, year`.
    Bibliographic,
    /// Movies: `title, director, actors, year, genre`.
    Movie,
    /// Restaurants: `name, addr, city, phone, type`.
    Restaurant,
    /// Products with long free-text descriptions: `name, description, price`.
    TextualProduct,
    /// Company home-page style text: `name, content`.
    TextualCompany,
}

impl Domain {
    /// Attribute names of this domain's schema.
    pub fn attributes(&self) -> Vec<String> {
        let names: &[&str] = match self {
            Domain::Product => &["title", "brand", "model", "price"],
            Domain::Bibliographic => &["title", "authors", "venue", "year"],
            Domain::Movie => &["title", "director", "actors", "year", "genre"],
            Domain::Restaurant => &["name", "addr", "city", "phone", "type"],
            Domain::TextualProduct => &["name", "description", "price"],
            Domain::TextualCompany => &["name", "content"],
        };
        names.iter().map(|s| s.to_string()).collect()
    }

    /// Index of the `title`-like attribute (target of dirty misplacement).
    pub fn title_index(&self) -> usize {
        0
    }
}

/// One ground-truth entity: its family and canonical attribute values.
#[derive(Debug, Clone)]
pub struct Entity {
    /// Family index in `[0, family_count)`.
    pub family: usize,
    /// Canonical (uncorrupted) attribute values, aligned with
    /// [`Domain::attributes`].
    pub values: Vec<String>,
}

/// Tokens shared by all members of one family.
///
/// Beyond the brand/category/stem, a family carries a small set of *line
/// names* (product lines, movie franchises, paper series). Entities of the
/// same family share their line name with ~half their siblings, so a
/// same-line sibling differs from a record only in its unique identifier
/// tokens — the near-duplicate non-matches that make hard benchmarks hard
/// (e.g. two products that differ only in the model number).
#[derive(Debug, Clone)]
struct Family {
    brand: String,
    category: String,
    name_stem: String,
    lines: Vec<String>,
    code_prefix: String,
    base_price: usize,
    base_year: usize,
    people: Vec<String>,
}

/// Deterministic generator of ground-truth entities for one domain.
#[derive(Debug)]
pub struct EntityFactory {
    domain: Domain,
    families: Vec<Family>,
    identity_pool: Vec<String>,
    rng: Prng,
    next_identity: usize,
}

impl EntityFactory {
    /// Creates a factory that will spread entities over `family_count`
    /// families. `capacity` bounds how many entities will be requested (it
    /// sizes the identity-token pool so identities stay distinct).
    pub fn new(domain: Domain, family_count: usize, capacity: usize, seed: u64) -> Self {
        let mut rng = Prng::seed_from_u64(seed);
        let family_count = family_count.max(1);
        let mut person_rng = rng.fork(101);
        let person_pool: Vec<String> = (0..(family_count * 4).max(16))
            .map(|_| {
                format!(
                    "{} {}",
                    vocab::pseudo_word(&mut person_rng, 2),
                    vocab::pseudo_word(&mut person_rng, 2)
                )
            })
            .collect();
        let mut stem_rng = rng.fork(102);
        let families = (0..family_count)
            .map(|i| Family {
                brand: vocab::BRANDS[i % vocab::BRANDS.len()].to_string(),
                category: vocab::CATEGORIES[i % vocab::CATEGORIES.len()].to_string(),
                name_stem: vocab::pseudo_word(&mut stem_rng, 2),
                lines: (0..2)
                    .map(|_| vocab::pseudo_word(&mut stem_rng, 2))
                    .collect(),
                code_prefix: {
                    let letters: Vec<char> = ('a'..='z').collect();
                    format!("{}{}", stem_rng.choose(&letters), stem_rng.choose(&letters))
                },
                base_price: 20 + 30 * stem_rng.index(60),
                base_year: 1975 + stem_rng.index(45),
                people: (0..3)
                    .map(|_| person_pool[stem_rng.index(person_pool.len())].clone())
                    .collect(),
            })
            .collect();
        // Two pseudo-words per entity plus slack.
        let identity_pool = vocab::word_pool(seed ^ 0xD1CE, capacity * 2 + 64, 2);
        EntityFactory {
            domain,
            families,
            identity_pool,
            rng,
            next_identity: 0,
        }
    }

    /// The domain this factory generates for.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    fn next_identity_word(&mut self) -> String {
        let w = self.identity_pool[self.next_identity % self.identity_pool.len()].clone();
        self.next_identity += 1;
        w
    }

    fn filler(&mut self, n: usize) -> String {
        (0..n)
            .map(|_| *self.rng.choose(vocab::FILLER))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Generates the next entity (entities are produced in a deterministic
    /// sequence; entity `i` always lands in family `i % family_count`).
    pub fn generate(&mut self, index: usize) -> Entity {
        let family_idx = index % self.families.len();
        let fam = self.families[family_idx].clone();
        // Same-line siblings are the near-duplicate non-matches: they share
        // brand, stem, line — everything but the unique word and the code.
        let line = fam.lines[(index / self.families.len()) % fam.lines.len()].clone();
        let unique = self.next_identity_word();
        let values = match self.domain {
            Domain::Product => {
                let code = format!("{}-{}", fam.code_prefix, self.rng.range(100, 9999));
                let title = format!(
                    "{} {} {} {} {} {}",
                    fam.brand, fam.name_stem, line, fam.category, unique, code
                );
                // Prices cluster within a family line, so siblings often
                // share the exact price — coincidental agreement that keeps
                // even non-linear matchers below perfect F1 on hard sets.
                let price = format!("{}.99", fam.base_price + 10 * self.rng.index(3));
                vec![title, fam.brand.clone(), code, price]
            }
            Domain::Bibliographic => {
                let title = format!("{} {} for {} {}", line, unique, fam.name_stem, fam.category);
                let mut authors = fam.people.clone();
                self.rng.shuffle(&mut authors);
                authors.truncate(2 + self.rng.index(2));
                let venue = vocab::VENUES[family_idx % vocab::VENUES.len()].to_string();
                let year = format!("{}", fam.base_year.max(1995) + self.rng.index(4));
                vec![title, authors.join(", "), venue, year]
            }
            Domain::Movie => {
                let title = format!("{} {} {}", fam.name_stem, line, unique);
                let director = fam.people[0].clone();
                let actors = fam.people[1..].join(", ");
                let year = format!("{}", fam.base_year + self.rng.index(4));
                let genre = vocab::GENRES[family_idx % vocab::GENRES.len()].to_string();
                vec![title, director, actors, year, genre]
            }
            Domain::Restaurant => {
                let name = format!("{} {} {}", unique, fam.name_stem, "grill");
                let addr = format!("{} {} st", self.rng.range(1, 999), line);
                let city = vocab::CITIES[family_idx % vocab::CITIES.len()].to_string();
                let phone = format!(
                    "{}-{}-{}",
                    self.rng.range(200, 999),
                    self.rng.range(200, 999),
                    self.rng.range(1000, 9999)
                );
                let cuisine = vocab::CUISINES[family_idx % vocab::CUISINES.len()].to_string();
                vec![name, addr, city, phone, cuisine]
            }
            Domain::TextualProduct => {
                let code = format!("{}-{}", fam.code_prefix, self.rng.range(100, 9999));
                let name = format!("{} {} {} {}", fam.brand, line, unique, code);
                let description = format!(
                    "{} {} {} {} {} {} {}",
                    self.filler(6),
                    fam.category,
                    line,
                    self.filler(8),
                    unique,
                    fam.brand,
                    self.filler(6),
                );
                let price = format!("{}.99", fam.base_price + 10 * self.rng.index(3));
                vec![name, description, price]
            }
            Domain::TextualCompany => {
                let name = format!("{} {} inc", unique, fam.name_stem);
                let content = format!(
                    "{} {} company {} founded {} {} {} {} products {} {}",
                    line,
                    fam.name_stem,
                    self.filler(5),
                    1950 + self.rng.index(70),
                    self.filler(6),
                    unique,
                    fam.category,
                    self.filler(6),
                    fam.people[0],
                );
                vec![name, content]
            }
        };
        Entity {
            family: family_idx,
            values,
        }
    }

    /// Generates `count` entities.
    pub fn generate_all(&mut self, count: usize) -> Vec<Entity> {
        (0..count).map(|i| self.generate(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let a = EntityFactory::new(Domain::Product, 8, 100, 42).generate_all(50);
        let b = EntityFactory::new(Domain::Product, 8, 100, 42).generate_all(50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.values, y.values);
            assert_eq!(x.family, y.family);
        }
    }

    #[test]
    fn arity_matches_domain_schema() {
        for domain in [
            Domain::Product,
            Domain::Bibliographic,
            Domain::Movie,
            Domain::Restaurant,
            Domain::TextualProduct,
            Domain::TextualCompany,
        ] {
            let es = EntityFactory::new(domain, 4, 20, 1).generate_all(10);
            let arity = domain.attributes().len();
            for e in &es {
                assert_eq!(e.values.len(), arity, "{domain:?}");
                assert!(e.values.iter().all(|v| !v.is_empty()));
            }
        }
    }

    #[test]
    fn entities_have_distinct_identities() {
        let es = EntityFactory::new(Domain::Product, 4, 200, 3).generate_all(100);
        let titles: std::collections::BTreeSet<_> =
            es.iter().map(|e| e.values[0].clone()).collect();
        assert_eq!(titles.len(), 100);
    }

    #[test]
    fn family_members_share_tokens() {
        let es = EntityFactory::new(Domain::Product, 5, 100, 9).generate_all(50);
        // Entities 0 and 5 are in the same family; 0 and 1 are not.
        assert_eq!(es[0].family, es[5].family);
        assert_ne!(es[0].family, es[1].family);
        let t0 = rlb_textsim::TokenSet::from_text(&es[0].values.join(" "));
        let t5 = rlb_textsim::TokenSet::from_text(&es[5].values.join(" "));
        let t1 = rlb_textsim::TokenSet::from_text(&es[1].values.join(" "));
        assert!(
            t0.intersection_size(&t5) > t0.intersection_size(&t1),
            "family siblings should overlap more than strangers"
        );
    }

    #[test]
    fn textual_domain_is_verbose() {
        let es = EntityFactory::new(Domain::TextualProduct, 4, 20, 5).generate_all(10);
        for e in &es {
            let desc_tokens = rlb_textsim::tokens(&e.values[1]);
            assert!(
                desc_tokens.len() >= 15,
                "description too short: {}",
                e.values[1]
            );
        }
    }
}
