//! Distributed equi-join: the paper's motivating database application.
//!
//! "A quite basic problem, such as computing the join of two databases
//! held by different servers, requires computing an intersection, which
//! one would like to do with as little communication and as few messages
//! as possible."
//!
//! Two servers each hold a table keyed by a `u64`. The join protocol first
//! recovers the *key intersection* with a communication-optimal protocol,
//! then ships only the matching rows' payloads — so total cost is
//! `O(k·log^{(r)} k + |result|·payload)` instead of shipping a whole table
//! (`k·(log n + payload)`).

use intersect_comm::bits::BitBuf;
use intersect_comm::chan::Chan;
use intersect_comm::coins::CoinSource;
use intersect_comm::encode::{get_gamma0, put_gamma0};
use intersect_comm::error::ProtocolError;
use intersect_comm::runner::Side;
use intersect_core::api::SetIntersection;
use intersect_core::sets::{ElementSet, ProblemSpec};
use intersect_core::tree::TreeProtocol;
use std::collections::BTreeMap;

/// A row of a keyed table: a join key plus numeric attribute values.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Row {
    /// The join key (unique within a table).
    pub key: u64,
    /// Attribute values.
    pub fields: Vec<u64>,
}

/// A keyed table held by one server.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    rows: BTreeMap<u64, Vec<u64>>,
}

impl Table {
    /// An empty table.
    pub fn new() -> Self {
        Table::default()
    }

    /// Inserts a row, replacing any previous row with the same key.
    pub fn insert(&mut self, row: Row) -> Option<Vec<u64>> {
        self.rows.insert(row.key, row.fields)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The key set of the table.
    pub(crate) fn key_set(&self) -> ElementSet {
        self.rows.keys().copied().collect()
    }

    /// Looks up a row's fields by key.
    pub fn get(&self, key: u64) -> Option<&[u64]> {
        self.rows.get(&key).map(|f| f.as_slice())
    }

    /// Iterates rows in key order.
    pub fn iter(&self) -> impl Iterator<Item = Row> + '_ {
        self.rows.iter().map(|(&key, fields)| Row {
            key,
            fields: fields.clone(),
        })
    }
}

impl FromIterator<Row> for Table {
    fn from_iter<I: IntoIterator<Item = Row>>(iter: I) -> Self {
        let mut t = Table::new();
        for row in iter {
            t.insert(row);
        }
        t
    }
}

/// One row of the join result: the key plus both sides' fields.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct JoinedRow {
    /// The join key.
    pub key: u64,
    /// Fields from the left (Alice's) table.
    pub left: Vec<u64>,
    /// Fields from the right (Bob's) table.
    pub right: Vec<u64>,
}

/// Distributed equi-join on top of any intersection protocol.
///
/// # Examples
///
/// ```
/// use intersect_apps::join::{JoinProtocol, Row, Table};
/// use intersect_core::sets::ProblemSpec;
/// use intersect_comm::runner::{run_two_party, RunConfig, Side};
///
/// let users: Table = [(7u64, vec![100]), (9, vec![200])]
///     .into_iter()
///     .map(|(key, fields)| Row { key, fields })
///     .collect();
/// let orders: Table = [(9u64, vec![1, 2]), (11, vec![3])]
///     .into_iter()
///     .map(|(key, fields)| Row { key, fields })
///     .collect();
/// let spec = ProblemSpec::new(1 << 20, 8);
/// let proto = JoinProtocol::default();
/// let out = run_two_party(
///     &RunConfig::with_seed(4),
///     |chan, coins| proto.run(chan, coins, Side::Alice, spec, &users),
///     |chan, coins| proto.run(chan, coins, Side::Bob, spec, &orders),
/// )?;
/// assert_eq!(out.alice.len(), 1);
/// assert_eq!(out.alice[0].key, 9);
/// assert_eq!(out.alice[0].right, vec![1, 2]);
/// assert_eq!(out.alice, out.bob);
/// # Ok::<(), intersect_comm::error::ProtocolError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct JoinProtocol<P = TreeProtocol> {
    /// The key-intersection protocol.
    pub inner: P,
    /// Bits used to encode each field value on the wire.
    pub field_bits: usize,
}

impl Default for JoinProtocol<TreeProtocol> {
    fn default() -> Self {
        JoinProtocol {
            inner: TreeProtocol::new(2),
            field_bits: 64,
        }
    }
}

impl<P: SetIntersection> JoinProtocol<P> {
    /// Wraps a key-intersection protocol.
    pub fn new(inner: P) -> Self {
        JoinProtocol {
            inner,
            field_bits: 64,
        }
    }

    /// Runs the join; both servers output the full joined rows in key
    /// order.
    ///
    /// # Errors
    ///
    /// Fails if the table violates `spec` or on protocol failure.
    pub fn run(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        spec: ProblemSpec,
        table: &Table,
    ) -> Result<Vec<JoinedRow>, ProtocolError> {
        let keys = table.key_set();
        spec.validate(&keys).map_err(ProtocolError::InvalidInput)?;
        // Phase 1: key intersection at communication-optimal cost.
        let matched = self
            .inner
            .run(chan, &coins.fork("join"), side, spec, &keys)?;

        // Phase 2: exchange payloads of matching rows only, in key order.
        let mut msg = BitBuf::new();
        for key in matched.iter() {
            let fields = table.get(key).ok_or_else(|| {
                ProtocolError::Internal(format!("matched key {key} missing from table"))
            })?;
            put_gamma0(&mut msg, fields.len() as u64);
            for &f in fields {
                msg.push_bits(f, self.field_bits);
            }
        }
        let theirs = chan.exchange(msg)?;
        let mut r = theirs.reader();
        let mut out = Vec::with_capacity(matched.len());
        for key in matched.iter() {
            let count = get_gamma0(&mut r)?;
            let mut peer_fields = Vec::with_capacity(count as usize);
            for _ in 0..count {
                peer_fields.push(r.read_bits(self.field_bits)?);
            }
            let my_fields = table.get(key).expect("validated above").to_vec();
            let (left, right) = match side {
                Side::Alice => (my_fields, peer_fields),
                Side::Bob => (peer_fields, my_fields),
            };
            out.push(JoinedRow { key, left, right });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intersect_comm::runner::{run_two_party, RunConfig};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn table_of(pairs: &[(u64, Vec<u64>)]) -> Table {
        pairs
            .iter()
            .map(|(key, fields)| Row {
                key: *key,
                fields: fields.clone(),
            })
            .collect()
    }

    fn run_join(
        seed: u64,
        spec: ProblemSpec,
        left: &Table,
        right: &Table,
    ) -> (
        Vec<JoinedRow>,
        Vec<JoinedRow>,
        intersect_comm::stats::CostReport,
    ) {
        let proto = JoinProtocol::default();
        let out = run_two_party(
            &RunConfig::with_seed(seed),
            |chan, coins| proto.run(chan, coins, Side::Alice, spec, left),
            |chan, coins| proto.run(chan, coins, Side::Bob, spec, right),
        )
        .unwrap();
        (out.alice, out.bob, out.report)
    }

    #[test]
    fn join_matches_local_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let spec = ProblemSpec::new(1 << 20, 128);
        for _ in 0..10 {
            let left = table_of(
                &(0..100u64)
                    .map(|_| {
                        let k = rng.gen_range(0..500u64);
                        (k, vec![rng.gen(), rng.gen()])
                    })
                    .collect::<Vec<_>>(),
            );
            let right = table_of(
                &(0..100u64)
                    .map(|_| {
                        let k = rng.gen_range(0..500u64);
                        (k, vec![rng.gen()])
                    })
                    .collect::<Vec<_>>(),
            );
            let (a, b, _) = run_join(rng.gen(), spec, &left, &right);
            assert_eq!(a, b);
            // Oracle: local nested-loop join.
            let mut expect = Vec::new();
            for row in left.iter() {
                if let Some(rf) = right.get(row.key) {
                    expect.push(JoinedRow {
                        key: row.key,
                        left: row.fields.clone(),
                        right: rf.to_vec(),
                    });
                }
            }
            assert_eq!(a, expect);
        }
    }

    #[test]
    fn disjoint_tables_join_empty() {
        let spec = ProblemSpec::new(1000, 8);
        let left = table_of(&[(1, vec![10]), (2, vec![20])]);
        let right = table_of(&[(3, vec![30])]);
        let (a, b, _) = run_join(2, spec, &left, &right);
        assert!(a.is_empty() && b.is_empty());
    }

    #[test]
    fn payload_cost_scales_with_result_not_table() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let spec = ProblemSpec::new(1 << 40, 520);
        // Large tables, tiny overlap: cost must be far below shipping a table.
        let mut left = Table::new();
        let mut right = Table::new();
        for i in 0..512u64 {
            left.insert(Row {
                key: rng.gen_range(0..1u64 << 39),
                fields: vec![i; 4],
            });
            right.insert(Row {
                key: (1u64 << 39) + rng.gen_range(0..1u64 << 39),
                fields: vec![i; 4],
            });
        }
        // Insert 3 shared keys.
        for key in [7u64, 8, 9] {
            left.insert(Row {
                key,
                fields: vec![1, 2, 3, 4],
            });
            right.insert(Row {
                key,
                fields: vec![5, 6, 7, 8],
            });
        }
        let (a, _, report) = run_join(4, spec, &left, &right);
        assert_eq!(a.len(), 3);
        // Shipping either table naively: ≥ 515 rows × (40-bit key + 4×64-bit
        // fields) ≈ 152k bits. The join should be an order cheaper.
        assert!(
            report.total_bits() < 40_000,
            "join cost {} bits",
            report.total_bits()
        );
    }

    #[test]
    fn empty_tables() {
        let spec = ProblemSpec::new(1000, 8);
        let (a, b, _) = run_join(5, spec, &Table::new(), &Table::new());
        assert!(a.is_empty() && b.is_empty());
    }

    #[test]
    fn table_semantics() {
        let mut t = Table::new();
        assert!(t.is_empty());
        t.insert(Row {
            key: 5,
            fields: vec![1],
        });
        let old = t.insert(Row {
            key: 5,
            fields: vec![2],
        });
        assert_eq!(old, Some(vec![1]));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(5), Some(&[2u64][..]));
        assert_eq!(t.key_set().as_slice(), &[5]);
    }
}
