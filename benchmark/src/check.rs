//! Answer checks: the paper's two laws and row conservation.
//!
//! A benchmark that times wrong answers measures nothing. Every response
//! of every phase passes through a [`LawChecker`]; the conservation and
//! restore checks run once on the end state.

use fungus_types::Value;

/// A growable bit set over tuple ids (ids are dense and ascending, so a
/// bit per id is smaller and faster than a hash set).
#[derive(Debug, Default, Clone)]
pub struct IdSet {
    words: Vec<u64>,
    len: u64,
}

impl IdSet {
    /// Inserts `id`; false when it was already present.
    pub fn insert(&mut self, id: u64) -> bool {
        let (word, bit) = ((id / 64) as usize, id % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] & (1 << bit) == 0;
        self.words[word] |= 1 << bit;
        self.len += u64::from(fresh);
        fresh
    }

    /// Whether `id` is present.
    pub fn contains(&self, id: u64) -> bool {
        self.words
            .get((id / 64) as usize)
            .is_some_and(|w| w & (1 << (id % 64)) != 0)
    }

    /// Ids present.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no id is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ids present in both sets.
    pub fn overlap(&self, other: &IdSet) -> u64 {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| u64::from((a & b).count_ones()))
            .sum()
    }
}

/// Checks Law 1 (no returned tuple has freshness ≤ 0) and Law 2 (a
/// consumed tuple is never returned again) over the responses one
/// sequential caller sees. The script projects `$freshness` and `$id` in
/// its row-returning shapes so the checker has something to look at.
#[derive(Debug, Default)]
pub struct LawChecker {
    consumed: IdSet,
    /// Returned rows with `$freshness` ≤ 0.
    pub rotten_returned: u64,
    /// Rows returned after this caller had consumed them (or consumed
    /// twice).
    pub consumed_returned: u64,
    /// Rows inspected.
    pub rows_seen: u64,
    /// First violation, for the error message.
    pub first_violation: Option<String>,
}

impl LawChecker {
    /// Inspects one answer set; `consuming` says whether the statement
    /// carried `CONSUME`.
    pub fn observe(&mut self, columns: &[String], rows: &[Vec<Value>], consuming: bool) {
        let id_col = columns.iter().position(|c| c == "$id");
        let fresh_col = columns.iter().position(|c| c == "$freshness");
        if id_col.is_none() && fresh_col.is_none() {
            return;
        }
        for row in rows {
            self.rows_seen += 1;
            if let Some(f) = fresh_col.and_then(|c| row.get(c)).and_then(Value::as_f64) {
                if f <= 0.0 {
                    self.rotten_returned += 1;
                    self.note(|| format!("law 1: returned a tuple with $freshness = {f}"));
                }
            }
            if let Some(id) = id_col.and_then(|c| row.get(c)).and_then(Value::as_i64) {
                let id = id as u64;
                let again = if consuming {
                    !self.consumed.insert(id)
                } else {
                    self.consumed.contains(id)
                };
                if again {
                    self.consumed_returned += 1;
                    self.note(|| format!("law 2: tuple {id} was returned after it was consumed"));
                }
            }
        }
    }

    fn note(&mut self, message: impl FnOnce() -> String) {
        if self.first_violation.is_none() {
            self.first_violation = Some(message());
        }
    }

    /// Violations of either law seen so far.
    pub fn violations(&self) -> u64 {
        self.rotten_returned + self.consumed_returned
    }

    /// The ids this caller consumed.
    pub fn consumed(&self) -> &IdSet {
        &self.consumed
    }
}

/// Law 2 across concurrent callers: no id may have been handed out by two
/// different callers' `CONSUME`s. (Whether caller B may still *read* an id
/// that caller A is consuming at that instant is a race the protocol
/// allows; consuming it twice is not.)
pub fn check_disjoint(checkers: &[&LawChecker]) -> Result<(), String> {
    for (i, a) in checkers.iter().enumerate() {
        for (j, b) in checkers.iter().enumerate().skip(i + 1) {
            let n = a.consumed().overlap(b.consumed());
            if n > 0 {
                return Err(format!(
                    "law 2: {n} tuple(s) were consumed by both caller {i} and caller {j}"
                ));
            }
        }
    }
    Ok(())
}

/// Row conservation on a quiescent in-process database: every
/// acknowledged row is live, rotted, or consumed.
pub fn check_conservation(acked: u64, rotted: u64, consumed: u64, live: u64) -> Result<(), String> {
    if rotted + consumed + live == acked {
        Ok(())
    } else {
        Err(format!(
            "conservation: {acked} rows acknowledged but {rotted} rotted + {consumed} consumed \
             + {live} live = {}",
            rotted + consumed + live
        ))
    }
}

/// The server answered everything it decoded, and none of it with an
/// error.
pub fn check_server_counters(requests: u64, responses: u64, errors: u64) -> Result<(), String> {
    if requests != responses {
        return Err(format!(
            "server decoded {requests} requests but wrote {responses} responses"
        ));
    }
    if errors != 0 {
        return Err(format!("server reported {errors} error responses"));
    }
    Ok(())
}

/// A checkpoint restored into a fresh database must hold the same rows.
pub fn check_restore(live_before: u64, live_after: u64) -> Result<(), String> {
    if live_before == live_after {
        Ok(())
    } else {
        Err(format!(
            "restore: checkpointed {live_before} live rows, restored {live_after}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn row(id: i64, freshness: f64) -> Vec<Value> {
        vec![Value::Int(id), Value::Float(freshness), Value::Float(1.5)]
    }

    #[test]
    fn id_set_inserts_once_and_counts_overlap() {
        let mut a = IdSet::default();
        assert!(a.is_empty());
        assert!(a.insert(3));
        assert!(a.insert(1_000));
        assert!(!a.insert(3));
        assert!(a.contains(1_000) && !a.contains(999) && !a.contains(1 << 40));
        assert_eq!(a.len(), 2);
        let mut b = IdSet::default();
        b.insert(1_000);
        b.insert(64);
        assert_eq!(a.overlap(&b), 1);
    }

    #[test]
    fn law_1_flags_a_rotten_row() {
        let c = cols(&["$id", "$freshness", "reading"]);
        let mut k = LawChecker::default();
        k.observe(&c, &[row(1, 0.4), row(2, 1.0)], false);
        assert_eq!(k.violations(), 0);
        k.observe(&c, &[row(3, 0.0)], false);
        k.observe(&c, &[row(4, -0.1)], true);
        assert_eq!(k.rotten_returned, 2);
        assert!(k.first_violation.as_deref().unwrap().starts_with("law 1"));
        assert_eq!(k.rows_seen, 4);
    }

    #[test]
    fn law_2_flags_a_consumed_row_that_comes_back() {
        let c = cols(&["$id", "$freshness", "reading"]);
        let mut k = LawChecker::default();
        k.observe(&c, &[row(7, 0.9), row(8, 0.9)], true);
        // Reading other rows is fine; reading 7 again is not, consuming 8
        // again is not either.
        k.observe(&c, &[row(9, 0.9)], false);
        assert_eq!(k.violations(), 0);
        k.observe(&c, &[row(7, 0.8)], false);
        k.observe(&c, &[row(8, 0.8)], true);
        assert_eq!(k.consumed_returned, 2);
        assert!(k.first_violation.as_deref().unwrap().contains("tuple 7"));
        assert_eq!(k.consumed().len(), 2);
    }

    #[test]
    fn answers_without_the_pseudo_columns_are_skipped() {
        let mut k = LawChecker::default();
        k.observe(&cols(&["COUNT(*)"]), &[vec![Value::Int(0)]], false);
        assert_eq!((k.rows_seen, k.violations()), (0, 0));
    }

    #[test]
    fn two_callers_may_not_consume_the_same_tuple() {
        let c = cols(&["$id"]);
        let mut a = LawChecker::default();
        let mut b = LawChecker::default();
        a.observe(&c, &[vec![Value::Int(1)], vec![Value::Int(2)]], true);
        b.observe(&c, &[vec![Value::Int(3)]], true);
        assert!(check_disjoint(&[&a, &b]).is_ok());
        let mut a = LawChecker::default();
        let mut b = LawChecker::default();
        a.observe(&c, &[vec![Value::Int(5)]], true);
        b.observe(&c, &[vec![Value::Int(5)]], true);
        let err = check_disjoint(&[&a, &b]).unwrap_err();
        assert!(err.contains("caller 0 and caller 1"), "{err}");
    }

    #[test]
    fn conservation_catches_a_lost_or_invented_row() {
        assert!(check_conservation(100, 30, 20, 50).is_ok());
        assert!(check_conservation(100, 30, 20, 49).is_err());
        assert!(check_conservation(100, 30, 21, 50).is_err());
    }

    #[test]
    fn server_counters_must_balance_and_be_clean() {
        assert!(check_server_counters(10, 10, 0).is_ok());
        assert!(check_server_counters(10, 9, 0).is_err());
        assert!(check_server_counters(10, 10, 1).is_err());
    }

    #[test]
    fn restore_must_give_back_the_same_live_count() {
        assert!(check_restore(42, 42).is_ok());
        assert!(check_restore(42, 41).is_err());
    }
}
