//! Runtime values and column types for the relational engine.

use std::cmp::Ordering;
use std::fmt;

/// Column data types supported by the engine — the set needed by the
/// paper's shredded schemas (integer ids, string/PCDATA payloads, boolean
/// presence flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataType {
    /// 64-bit signed integer (`INTEGER` / `INT` / `BIGINT`).
    Integer,
    /// UTF-8 string (`VARCHAR(n)` / `TEXT` / `CHAR(n)`; lengths are parsed
    /// and ignored, as the engine does not enforce them).
    Text,
    /// Boolean (`BOOLEAN`), used for inlined-element presence flags and ASR
    /// delete marks.
    Boolean,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Integer => write!(f, "INTEGER"),
            DataType::Text => write!(f, "TEXT"),
            DataType::Boolean => write!(f, "BOOLEAN"),
        }
    }
}

/// A runtime value. SQL three-valued logic is implemented at the expression
/// layer; `Null` compares as *unknown* there, while [`Value::sort_cmp`]
/// provides the total order used by `ORDER BY` and index keys
/// (NULLs first, matching the sort the Sorted Outer Union relies on to put
/// parent tuples ahead of their children).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer value.
    Int(i64),
    /// String value.
    Str(String),
    /// Boolean value.
    Bool(bool),
}

impl Value {
    /// `true` if this is `Null`.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The type this value inhabits, if non-null.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Integer),
            Value::Str(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Boolean),
        }
    }

    /// Integer accessor.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean accessor.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL comparison: `None` when either side is NULL (unknown), or when
    /// the types are incomparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total order for sorting and index keys: NULL < Bool < Int < Str;
    /// within a type, the natural order.
    pub fn sort_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Rendering used by result printing and error messages.
    pub fn render(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Int(i) => i.to_string(),
            Value::Str(s) => s.clone(),
            Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Int(i) => {
                1u8.hash(state);
                i.hash(state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Value::Bool(b) => {
                3u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// `Ord` is [`Value::sort_cmp`]'s total order (NULL < Bool < Int < Str),
/// which agrees with the structural `Eq`/`Hash` above; it is what lets a
/// `BTreeMap<Value, _>` index be probed by borrowed key.
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.sort_cmp(other)
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A tuple (row) of values.
pub type Row = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
    }

    #[test]
    fn sort_cmp_puts_null_first() {
        let mut vals = vec![Value::Int(2), Value::Null, Value::Int(1)];
        vals.sort_by(Value::sort_cmp);
        assert_eq!(vals, vec![Value::Null, Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn cross_type_sort_is_total() {
        let mut vals = [
            Value::Str("a".into()),
            Value::Bool(true),
            Value::Int(5),
            Value::Null,
        ];
        vals.sort_by(Value::sort_cmp);
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[3], Value::Str("a".into()));
    }

    #[test]
    fn hash_eq_consistent() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(Value::Int(7), "x");
        assert_eq!(m.get(&Value::Int(7)), Some(&"x"));
        m.insert(Value::Str("k".into()), "y");
        assert_eq!(m.get(&Value::Str("k".into())), Some(&"y"));
    }

    #[test]
    fn ord_matches_sort_cmp() {
        use std::collections::BTreeMap;
        let mut m: BTreeMap<Value, usize> = BTreeMap::new();
        m.insert(Value::Int(2), 0);
        m.insert(Value::Null, 1);
        m.insert(Value::Str("a".into()), 2);
        m.insert(Value::Int(1), 3);
        let keys: Vec<&Value> = m.keys().collect();
        assert_eq!(
            keys,
            [
                &Value::Null,
                &Value::Int(1),
                &Value::Int(2),
                &Value::Str("a".into())
            ]
        );
    }

    #[test]
    fn renders() {
        assert_eq!(Value::Null.render(), "NULL");
        assert_eq!(Value::Int(-3).render(), "-3");
        assert_eq!(Value::Bool(false).render(), "FALSE");
    }
}
