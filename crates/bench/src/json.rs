//! The one JSON writer behind every `spire-sim --json` file. The
//! workspace deliberately has no serde dependency: the emitters build a
//! [`Json`] value and [`Json::render`] is the only place that knows the
//! syntax.

use std::fmt::Write as _;

use chaos::invariants::InvariantReport;

/// A JSON value. Object keys keep the order they were given in.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    Int(u64),
    /// A float written with a fixed number of decimal places.
    Fixed(f64, usize),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// Renders the value, newline-terminated. A container of scalars
    /// stays on one line; anything deeper is indented two spaces a level.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => _ = write!(out, "{b}"),
            Json::Int(n) => _ = write!(out, "{n}"),
            Json::Fixed(x, places) => _ = write!(out, "{x:.places$}"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, depth, ['[', ']'], items.iter().map(|v| (None, v))),
            Json::Obj(fields) => {
                let fields = fields.iter().map(|(k, v)| (Some(*k), v));
                write_seq(out, depth, ['{', '}'], fields);
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if c < ' ' => _ = write!(out, "\\u{:04x}", c as u32),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq<'a>(
    out: &mut String,
    depth: usize,
    brackets: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) {
    let mut values = items.clone().map(|(_, v)| v);
    let flat = values.all(|v| !matches!(v, Json::Arr(_) | Json::Obj(_)));
    out.push(brackets[0]);
    for (i, (key, value)) in items.enumerate() {
        out.push_str(if i > 0 { "," } else { "" });
        if flat {
            out.push_str(if i > 0 { " " } else { "" });
        } else {
            let _ = write!(out, "\n{:1$}", "", 2 * (depth + 1));
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    if !flat {
        let _ = write!(out, "\n{:1$}", "", 2 * depth);
    }
    out.push(brackets[1]);
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

macro_rules! json_from_unsigned {
    ($($int:ty),*) => {$(
        impl From<$int> for Json {
            fn from(n: $int) -> Self {
                Json::Int(n as u64)
            }
        }
    )*};
}
json_from_unsigned!(u32, u64, usize);

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// The per-invariant verdicts every chaos-checked experiment reports.
pub fn invariants(reports: &[InvariantReport]) -> Json {
    reports
        .iter()
        .map(|inv| {
            Json::Obj(vec![
                ("name", inv.name.into()),
                ("checks", inv.checks.into()),
                ("violations", inv.violations.into()),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_every_kind_of_value() {
        let v = Json::Obj(vec![
            ("z", "a\"b\\c\n\u{1}".into()),
            ("a", Json::Fixed(2.25, 1)),
            ("b", Json::Fixed(0.125, 2)),
            ("none", Option::<u64>::None.into()),
            ("some", Some(7u64).into()),
            ("empty", Json::Arr(Vec::new())),
            ("nested", Json::Obj(vec![("o", Json::Obj(Vec::new()))])),
            ("flat", [1u64, 2].into_iter().collect()),
        ]);
        assert_eq!(
            v.render(),
            "{\n  \"z\": \"a\\\"b\\\\c\\n\\u0001\",\n  \"a\": 2.2,\n  \"b\": 0.12,\n  \
             \"none\": null,\n  \"some\": 7,\n  \"empty\": [],\n  \
             \"nested\": {\n    \"o\": {}\n  },\n  \"flat\": [1, 2]\n}\n"
        );
    }
}
