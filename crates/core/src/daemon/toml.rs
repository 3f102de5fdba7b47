//! The dependency-free TOML subset the daemon's config file is written
//! in: `[section]` headers, `key = value` pairs, `#` comments, quoted
//! strings, integers, floats and booleans.

/// A parsed TOML value (subset: strings, integers, floats, booleans).
#[derive(Debug, Clone, PartialEq)]
pub(super) enum TomlValue {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
}

impl TomlValue {
    pub(super) fn type_name(&self) -> &'static str {
        match self {
            TomlValue::Str(_) => "string",
            TomlValue::Int(_) => "integer",
            TomlValue::Float(_) => "float",
            TomlValue::Bool(_) => "boolean",
        }
    }
}

/// A flat `section.key → value` document. Supports `[section]` headers,
/// `key = value` pairs, `#` comments, quoted strings with `\"`/`\\`/`\n`
/// escapes, integers, floats, and booleans — the subset a daemon config
/// needs, with no external dependency. Later duplicates win, so a
/// snippet appended to a config overrides it.
#[derive(Debug, Default)]
pub(super) struct TomlDoc {
    entries: Vec<(String, TomlValue)>,
}

impl TomlDoc {
    pub(super) fn parse(src: &str) -> std::result::Result<Self, String> {
        let mut doc = TomlDoc::default();
        let mut section = String::new();
        for (lineno, raw) in src.lines().enumerate() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            let n = lineno + 1;
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {n}: unterminated section header"))?
                    .trim();
                if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                    return Err(format!("line {n}: bad section name `{name}`"));
                }
                section = name.to_string();
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {n}: expected `key = value`"))?;
            let key = key.trim();
            if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(format!("line {n}: bad key `{key}`"));
            }
            let full = if section.is_empty() {
                key.to_string()
            } else {
                format!("{section}.{key}")
            };
            let value = parse_value(value.trim()).map_err(|e| format!("line {n}: {e}"))?;
            doc.entries.push((full, value));
        }
        Ok(doc)
    }

    /// Last-wins lookup.
    pub(super) fn get(&self, key: &str) -> Option<&TomlValue> {
        self.entries
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    pub(super) fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }

    pub(super) fn str_opt(&self, key: &str) -> std::result::Result<Option<String>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(TomlValue::Str(s)) => Ok(Some(s.clone())),
            Some(v) => Err(format!("{key}: expected string, got {}", v.type_name())),
        }
    }

    pub(super) fn f64_opt(&self, key: &str) -> std::result::Result<Option<f64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(TomlValue::Float(v)) => Ok(Some(*v)),
            Some(TomlValue::Int(v)) => Ok(Some(*v as f64)),
            Some(v) => Err(format!("{key}: expected number, got {}", v.type_name())),
        }
    }

    pub(super) fn u64_opt(&self, key: &str) -> std::result::Result<Option<u64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(TomlValue::Int(v)) if *v >= 0 => Ok(Some(*v as u64)),
            Some(TomlValue::Int(v)) => Err(format!("{key}: must be >= 0, got {v}")),
            Some(v) => Err(format!("{key}: expected integer, got {}", v.type_name())),
        }
    }

    pub(super) fn bool_opt(&self, key: &str) -> std::result::Result<Option<bool>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(TomlValue::Bool(v)) => Ok(Some(*v)),
            Some(v) => Err(format!("{key}: expected boolean, got {}", v.type_name())),
        }
    }
}

/// Strips a `#` comment, honoring `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(v: &str) -> std::result::Result<TomlValue, String> {
    if v.is_empty() {
        return Err("missing value".to_string());
    }
    if let Some(rest) = v.strip_prefix('"') {
        let body = rest
            .strip_suffix('"')
            .ok_or_else(|| "unterminated string".to_string())?;
        let mut out = String::with_capacity(body.len());
        let mut chars = body.chars();
        while let Some(c) = chars.next() {
            if c == '"' {
                return Err("unescaped quote inside string".to_string());
            }
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                other => return Err(format!("bad string escape `\\{}`", other.unwrap_or(' '))),
            }
        }
        return Ok(TomlValue::Str(out));
    }
    match v {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    let plain = v.replace('_', "");
    if !v.contains('.') && !v.contains('e') && !v.contains('E') {
        if let Ok(i) = plain.parse::<i64>() {
            return Ok(TomlValue::Int(i));
        }
    }
    if let Ok(f) = plain.parse::<f64>() {
        if f.is_finite() {
            return Ok(TomlValue::Float(f));
        }
    }
    Err(format!("unparseable value `{v}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minitoml_parses_sections_types_and_comments() {
        let doc = TomlDoc::parse(
            r##"
# top comment
top = 1
[daemon]
backend = "sim"   # trailing comment
setpoint_watts = 912.5
control_period_s = 4
[identify]
rls = false
path = "C:\\run \"x\"#y"
"##,
        )
        .unwrap();
        assert_eq!(doc.get("top"), Some(&TomlValue::Int(1)));
        assert_eq!(
            doc.get("daemon.backend"),
            Some(&TomlValue::Str("sim".into()))
        );
        assert_eq!(
            doc.get("daemon.setpoint_watts"),
            Some(&TomlValue::Float(912.5))
        );
        assert_eq!(doc.get("identify.rls"), Some(&TomlValue::Bool(false)));
        // `#` inside a quoted string is content, not a comment.
        assert_eq!(
            doc.get("identify.path"),
            Some(&TomlValue::Str("C:\\run \"x\"#y".into()))
        );
        assert!(TomlDoc::parse("no_equals_here").is_err());
        assert!(TomlDoc::parse("[unclosed").is_err());
        assert!(TomlDoc::parse("k = ").is_err());
        assert!(TomlDoc::parse("k = \"unterminated").is_err());
    }
}
