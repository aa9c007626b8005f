//! The workspace's one JSON writer: every JSON text it emits — the Perfetto
//! trace, the firmware lint report, the benchmark summary — goes through
//! [`Json`], so quoting, escaping, number formatting and separators are
//! spelled once. There is no parser: nothing in the workspace reads JSON.
//!
//! # Examples
//!
//! ```
//! use rosebud_kernel::json::Json;
//!
//! let mut json = Json::default();
//! json.object(|o| {
//!     o.key("name").value("fw\t1").key("label").value(None);
//!     o.key("ts").value(2.5).key("path").array(|a| {
//!         a.value(24u32).value(28u32);
//!     });
//! });
//! let text = r#"{"name":"fw\t1","label":null,"ts":2.5000,"path":[24,28]}"#;
//! assert_eq!(json.to_string(), text);
//! ```

use std::fmt::{self, Write as _};

/// One scalar JSON value; [`Json::value`] takes anything that converts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value<'a> {
    /// An unsigned integer.
    Uint(u64),
    /// A float, written with four decimals; `null` when not finite (JSON
    /// has no NaN or infinity).
    Float(f64),
    /// A string, escaped; `null` for `None`.
    Str(Option<&'a str>),
}

macro_rules! values {
    ($($t:ty => |$v:ident| $value:expr;)*) => {$(
        impl<'a> From<$t> for Value<'a> {
            fn from($v: $t) -> Self {
                $value
            }
        }
    )*};
}

values! {
    u8 => |v| Value::Uint(v.into());
    u32 => |v| Value::Uint(v.into());
    u64 => |v| Value::Uint(v);
    usize => |v| Value::Uint(v as u64);
    f64 => |v| Value::Float(v);
    &'a str => |s| Value::Str(Some(s));
    Option<&'a str> => |s| Value::Str(s);
}

/// A JSON text being written. A container's closure writes its elements,
/// an object's members each after a [`Json::key`]; the writer puts in the
/// separators. [`Display`](fmt::Display) prints the text.
#[derive(Debug, Default)]
pub struct Json {
    out: String,
    /// The open containers, innermost last: whether each is [`Json::rows`].
    rows: Vec<bool>,
    /// Whether the next element follows another in its container.
    after: bool,
}

impl Json {
    /// Writes an object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.open("{", false, body, "}")
    }

    /// Writes an array whose elements `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.open("[", false, body, "]")
    }

    /// Writes an array with each element, and the closing bracket, on a
    /// line of its own.
    pub fn rows(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.open("[\n", true, body, "\n]")
    }

    /// Names the next member of the open object.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.value(key).out.push(':');
        self.after = false;
        self
    }

    /// Writes one scalar value.
    pub fn value<'a>(&mut self, value: impl Into<Value<'a>>) -> &mut Self {
        self.separate();
        let _ = match value.into() {
            Value::Uint(v) => write!(self.out, "{v}"),
            Value::Float(v) if v.is_finite() => write!(self.out, "{v:.4}"),
            Value::Str(Some(s)) => self.quote(s),
            Value::Float(_) | Value::Str(None) => self.out.write_str("null"),
        };
        self.after = true;
        self
    }

    fn open(
        &mut self,
        open: &str,
        rows: bool,
        body: impl FnOnce(&mut Self),
        close: &str,
    ) -> &mut Self {
        self.separate();
        self.out.push_str(open);
        self.rows.push(rows);
        self.after = false;
        body(self);
        self.rows.pop();
        self.out.push_str(close);
        self.after = true;
        self
    }

    /// The comma before an element that follows another.
    fn separate(&mut self) {
        if self.after {
            let rows = self.rows.last() == Some(&true);
            self.out.push_str(if rows { ",\n" } else { "," });
        }
    }

    fn quote(&mut self, s: &str) -> fmt::Result {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' | '\\' => write!(self.out, "\\{c}")?,
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(self.out, "\\u{:04x}", c as u32)?,
                c => self.out.push(c),
            }
        }
        self.out.write_char('"')
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_put_each_element_on_its_own_line() {
        let mut json = Json::default();
        json.object(|o| {
            o.key("a").rows(|r| {
                r.object(|e| {
                    e.key("x").value(1u8);
                });
                r.value(f64::NAN).value("q\"\\\u{1}");
            });
        });
        assert_eq!(
            json.to_string(),
            "{\"a\":[\n{\"x\":1},\nnull,\n\"q\\\"\\\\\\u0001\"\n]}"
        );
    }
}
