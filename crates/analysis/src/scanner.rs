//! A line/column-aware token scanner for Rust source.
//!
//! Deliberately *not* a parser: the rules in this crate only need a
//! faithful token stream — identifiers, string literals, numbers, and
//! punctuation — with comments stripped and three pieces of side
//! information preserved:
//!
//! 1. **Suppression directives**: `// lint:allow(rule-id, reason)`
//!    comments are collected (not discarded) so the engine can honor
//!    them. A directive without a reason is itself reported.
//! 2. **Test regions**: tokens under a `#[cfg(test)]` or `#[test]`
//!    item are flagged `in_test`, so rules about production invariants
//!    skip assertions and unwraps that belong to tests.
//! 3. **String contents**: literals become [`TokKind::Str`] tokens
//!    carrying their unescaped-enough text, which is what the
//!    span-coverage rule matches baseline span names against.
//!
//! No `syn`, no proc-macro machinery: the scanner is a few hundred
//! lines of `char` iteration, which keeps the lint suite buildable in
//! the offline, vendored-deps-only environment.

/// Token classification. Coarse on purpose: rules match identifier
/// text and local token patterns, not grammar productions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unwrap`, `let`, `Mutex`, …).
    Ident,
    /// String literal (regular, raw, or byte); `text` is the contents
    /// without quotes or the `r#` framing.
    Str,
    /// Character literal (`'x'`); `text` excludes the quotes.
    Char,
    /// Numeric literal, suffix included (`42`, `0.5`, `1e-9`, `2f64`).
    Num,
    /// Lifetime (`'a`), text without the leading quote.
    Lifetime,
    /// Punctuation. Multi-char operators the rules care about
    /// (`::`, `==`, `!=`, `<=`, `>=`, `->`, `=>`, `..`, `&&`, `||`)
    /// come through as a single token.
    Punct,
}

/// One scanned token with its source position.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Classification.
    pub kind: TokKind,
    /// Token text (see [`TokKind`] for what is included).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (in chars).
    pub col: u32,
    /// True when the token sits inside a `#[cfg(test)]` / `#[test]`
    /// item (the attribute itself included).
    pub in_test: bool,
}

/// A parsed `// lint:allow(rule-id, reason)` comment.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// The rule id being suppressed (may be empty on a malformed
    /// directive — the engine reports that).
    pub rule: String,
    /// The justification; required, the engine reports empty reasons.
    pub reason: String,
    /// 1-based line of the comment. The directive covers findings on
    /// this line and the next, so it works both trailing and leading.
    pub line: u32,
}

/// One scanned source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The token stream.
    pub tokens: Vec<Tok>,
    /// All suppression directives found in comments.
    pub allows: Vec<AllowDirective>,
}

impl SourceFile {
    /// True for files that are wholly test/bench/example code by
    /// location (`tests/`, `benches/`, `examples/` directories).
    /// Per-file rules skip these: the invariants under lint are
    /// production-path properties.
    pub fn is_test_path(&self) -> bool {
        let p = &self.path;
        let in_dir = |d: &str| p.starts_with(&format!("{d}/")) || p.contains(&format!("/{d}/"));
        in_dir("tests") || in_dir("benches") || in_dir("examples")
    }
}

/// Rust keywords that terminate an expression context; used by rules to
/// tell `foo[i]` (indexing) from `for x in [a, b]` (array literal).
pub fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "as" | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "extern"
            | "false"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "static"
            | "struct"
            | "super"
            | "trait"
            | "true"
            | "type"
            | "unsafe"
            | "use"
            | "where"
            | "while"
            | "yield"
    )
}

/// True when a `Num` token spells a floating-point literal.
pub fn is_float_literal(text: &str) -> bool {
    if text.starts_with("0x") || text.starts_with("0b") || text.starts_with("0o") {
        return false;
    }
    text.contains('.')
        || text.contains('e')
        || text.contains('E')
        || text.ends_with("f32")
        || text.ends_with("f64")
}

/// Numeric value of a float literal, if parseable (suffix tolerated).
pub fn float_value(text: &str) -> Option<f64> {
    let cleaned: String = text.chars().filter(|&c| c != '_').collect();
    let cleaned = cleaned
        .trim_end_matches("f64")
        .trim_end_matches("f32")
        .trim_end_matches('.');
    cleaned.parse::<f64>().ok()
}

struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

/// Scan one file into tokens + directives and mark test regions.
pub fn scan(path: &str, src: &str) -> SourceFile {
    let mut cur = Cursor {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        col: 1,
    };
    let mut tokens: Vec<Tok> = Vec::new();
    let mut allows: Vec<AllowDirective> = Vec::new();

    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        match c {
            c if c.is_whitespace() => {
                cur.bump();
            }
            '/' if cur.peek(1) == Some('/') => {
                let mut text = String::new();
                while let Some(c) = cur.peek(0) {
                    if c == '\n' {
                        break;
                    }
                    text.push(c);
                    cur.bump();
                }
                parse_allow(&text, line, &mut allows);
            }
            '/' if cur.peek(1) == Some('*') => {
                cur.bump();
                cur.bump();
                let mut depth = 1usize;
                let mut text = String::new();
                while depth > 0 {
                    match (cur.peek(0), cur.peek(1)) {
                        (Some('/'), Some('*')) => {
                            depth += 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some('*'), Some('/')) => {
                            depth -= 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(c), _) => {
                            text.push(c);
                            cur.bump();
                        }
                        (None, _) => break,
                    }
                }
                parse_allow(&text, line, &mut allows);
            }
            '"' => {
                let text = scan_string(&mut cur);
                push(&mut tokens, TokKind::Str, text, line, col);
            }
            '\'' => {
                scan_quote(&mut cur, &mut tokens, line, col);
            }
            c if c.is_ascii_digit() => {
                let text = scan_number(&mut cur);
                push(&mut tokens, TokKind::Num, text, line, col);
            }
            c if c.is_alphabetic() || c == '_' => {
                if let Some(text) = try_scan_raw_or_byte_string(&mut cur) {
                    push(&mut tokens, TokKind::Str, text, line, col);
                } else {
                    let mut text = String::new();
                    // A raw identifier (`r#fn`, `r#mod`) keeps its `r#`
                    // framing in the token text, so it can never be
                    // mistaken for the keyword it escapes — the item
                    // extractor keys `fn`/`mod`/`impl` off exact text.
                    if c == 'r'
                        && cur.peek(1) == Some('#')
                        && matches!(cur.peek(2), Some(c2) if c2.is_alphabetic() || c2 == '_')
                    {
                        text.push('r');
                        text.push('#');
                        cur.bump();
                        cur.bump();
                    }
                    while let Some(c) = cur.peek(0) {
                        if c.is_alphanumeric() || c == '_' {
                            text.push(c);
                            cur.bump();
                        } else {
                            break;
                        }
                    }
                    push(&mut tokens, TokKind::Ident, text, line, col);
                }
            }
            _ => {
                let text = scan_punct(&mut cur);
                push(&mut tokens, TokKind::Punct, text, line, col);
            }
        }
    }

    mark_test_regions(&mut tokens);
    SourceFile {
        path: path.replace('\\', "/"),
        tokens,
        allows,
    }
}

fn push(tokens: &mut Vec<Tok>, kind: TokKind, text: String, line: u32, col: u32) {
    tokens.push(Tok {
        kind,
        text,
        line,
        col,
        in_test: false,
    });
}

/// Parse `lint:allow(rule, reason)` out of one comment's text.
///
/// Only plain `//` / `/* */` comments whose content *starts with* the
/// directive count — doc comments (`///`, `//!`) and prose that merely
/// mentions the syntax are not suppressions.
fn parse_allow(comment: &str, line: u32, out: &mut Vec<AllowDirective>) {
    if comment.starts_with("///") || comment.starts_with("//!") {
        return;
    }
    let content = comment.trim_start_matches('/').trim_start();
    if !content.starts_with("lint:allow(") {
        return;
    }
    let rest = &content["lint:allow(".len()..];
    let body = match rest.find(')') {
        Some(end) => &rest[..end],
        None => rest, // malformed; still record so the engine can flag it
    };
    let (rule, reason) = match body.split_once(',') {
        Some((r, why)) => (r.trim(), why.trim().trim_matches('"').trim()),
        None => (body.trim(), ""),
    };
    out.push(AllowDirective {
        rule: rule.to_string(),
        reason: reason.to_string(),
        line,
    });
}

/// Regular string literal; cursor sits on the opening quote.
fn scan_string(cur: &mut Cursor) -> String {
    cur.bump(); // opening quote
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        match c {
            '\\' => {
                cur.bump();
                if let Some(esc) = cur.bump() {
                    // Keep common escapes readable; exotic ones verbatim.
                    match esc {
                        'n' => text.push('\n'),
                        't' => text.push('\t'),
                        '\\' => text.push('\\'),
                        '"' => text.push('"'),
                        other => {
                            text.push('\\');
                            text.push(other);
                        }
                    }
                }
            }
            '"' => {
                cur.bump();
                break;
            }
            _ => {
                text.push(c);
                cur.bump();
            }
        }
    }
    text
}

/// `'x'` char literal vs `'a` lifetime; cursor sits on the quote.
fn scan_quote(cur: &mut Cursor, tokens: &mut Vec<Tok>, line: u32, col: u32) {
    cur.bump(); // the quote
    match cur.peek(0) {
        Some('\\') => {
            // Escaped char literal. The char right after a backslash is
            // payload even when it is a quote (`'\''`, `'\\'`), so track
            // escape state instead of breaking on the first `'`.
            let mut text = String::new();
            let mut esc = false;
            while let Some(c) = cur.bump() {
                if esc {
                    esc = false;
                    text.push(c);
                    continue;
                }
                match c {
                    '\\' => {
                        esc = true;
                        text.push(c);
                    }
                    '\'' => break,
                    _ => text.push(c),
                }
            }
            push(tokens, TokKind::Char, text, line, col);
        }
        Some(c) if c.is_alphanumeric() || c == '_' => {
            if cur.peek(1) == Some('\'') {
                // 'x' — single-char literal.
                cur.bump();
                cur.bump();
                push(tokens, TokKind::Char, c.to_string(), line, col);
            } else {
                // 'ident — lifetime, no closing quote.
                let mut text = String::new();
                while let Some(c) = cur.peek(0) {
                    if c.is_alphanumeric() || c == '_' {
                        text.push(c);
                        cur.bump();
                    } else {
                        break;
                    }
                }
                push(tokens, TokKind::Lifetime, text, line, col);
            }
        }
        Some(c) => {
            // Punctuation char literal like '(' .
            cur.bump();
            if cur.peek(0) == Some('\'') {
                cur.bump();
            }
            push(tokens, TokKind::Char, c.to_string(), line, col);
        }
        None => {}
    }
}

/// Numeric literal, suffix included; cursor sits on the first digit.
fn scan_number(cur: &mut Cursor) -> String {
    let mut text = String::new();
    // Integer / radix part (hex digits fall out of alphanumeric).
    while let Some(c) = cur.peek(0) {
        if c.is_alphanumeric() || c == '_' {
            text.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    // Fractional part: a '.' NOT followed by another '.' (range) or an
    // identifier start (method call on an integer).
    if cur.peek(0) == Some('.') {
        let after = cur.peek(1);
        let is_frac = match after {
            Some(c) => c.is_ascii_digit(),
            None => true,
        };
        let is_trailing_dot = matches!(after, Some(c) if !c.is_ascii_digit() && c != '.' && !c.is_alphabetic() && c != '_')
            || after.is_none();
        if is_frac || is_trailing_dot {
            text.push('.');
            cur.bump();
            while let Some(c) = cur.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    text.push(c);
                    cur.bump();
                } else {
                    break;
                }
            }
        }
    }
    // Exponent sign (the digits after it were consumed above unless a
    // sign intervenes: `1e-9`).
    if (text.ends_with('e') || text.ends_with('E'))
        && matches!(cur.peek(0), Some('+') | Some('-'))
        && matches!(cur.peek(1), Some(c) if c.is_ascii_digit())
    {
        text.push(cur.bump().expect("peeked"));
        while let Some(c) = cur.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                cur.bump();
            } else {
                break;
            }
        }
    }
    text
}

/// Raw/byte string prefixes: `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
/// Returns `None` (cursor untouched) when the identifier at the cursor
/// is not a string prefix.
fn try_scan_raw_or_byte_string(cur: &mut Cursor) -> Option<String> {
    let c0 = cur.peek(0)?;
    let (mut k, raw) = match (c0, cur.peek(1)) {
        ('r', Some('"')) | ('r', Some('#')) => (1, true),
        ('b', Some('"')) => (1, false),
        ('b', Some('r')) if matches!(cur.peek(2), Some('"') | Some('#')) => (2, true),
        _ => return None,
    };
    let mut hashes = 0usize;
    if raw {
        while cur.peek(k) == Some('#') {
            hashes += 1;
            k += 1;
        }
    }
    if cur.peek(k) != Some('"') {
        return None; // r#ident (raw identifier) or plain ident
    }
    for _ in 0..=k {
        cur.bump(); // prefix chars + opening quote
    }
    let mut text = String::new();
    loop {
        match cur.peek(0) {
            None => break,
            Some('\\') if !raw => {
                cur.bump();
                if let Some(c) = cur.bump() {
                    text.push(c);
                }
            }
            Some('"') => {
                // Closing only if followed by the right number of #s.
                let mut ok = true;
                for h in 0..hashes {
                    if cur.peek(1 + h) != Some('#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    for _ in 0..=hashes {
                        cur.bump();
                    }
                    break;
                }
                text.push('"');
                cur.bump();
            }
            Some(c) => {
                text.push(c);
                cur.bump();
            }
        }
    }
    Some(text)
}

const MULTI_PUNCT: &[&str] = &[
    "..=", "::", "==", "!=", "<=", ">=", "->", "=>", "..", "&&", "||",
];

fn scan_punct(cur: &mut Cursor) -> String {
    for op in MULTI_PUNCT {
        let mut all = true;
        for (k, oc) in op.chars().enumerate() {
            if cur.peek(k) != Some(oc) {
                all = false;
                break;
            }
        }
        if all {
            for _ in 0..op.chars().count() {
                cur.bump();
            }
            return (*op).to_string();
        }
    }
    cur.bump().map(String::from).unwrap_or_default()
}

/// Flag every token belonging to a `#[cfg(test)]` / `#[test]` item
/// (attribute included) as test code.
fn mark_test_regions(tokens: &mut [Tok]) {
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text == "#" && tokens.get(i + 1).map(|t| t.text.as_str()) == Some("[") {
            if let Some(attr_end) = matching_close(tokens, i + 1, "[", "]") {
                let words: Vec<&str> = tokens[i + 2..attr_end]
                    .iter()
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.as_str())
                    .collect();
                let is_test = words.contains(&"test") && !words.contains(&"not");
                if is_test {
                    let end = item_end(tokens, attr_end + 1).unwrap_or(tokens.len() - 1);
                    for t in &mut tokens[i..=end] {
                        t.in_test = true;
                    }
                    i = end + 1;
                    continue;
                }
                i = attr_end + 1;
                continue;
            }
        }
        i += 1;
    }
}

/// Index of the matching closer for the opener at `open_idx`.
fn matching_close(tokens: &[Tok], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.text == open {
            depth += 1;
        } else if t.text == close {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// End index of the item starting at `start`: the matching `}` of its
/// first brace block, or the first top-level `;` (e.g. `mod tests;`).
fn item_end(tokens: &[Tok], start: usize) -> Option<usize> {
    let mut k = start;
    while k < tokens.len() {
        match tokens[k].text.as_str() {
            "{" => return matching_close(tokens, k, "{", "}"),
            ";" => return Some(k),
            // Skip over nested attributes on the same item.
            _ => k += 1,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(f: &SourceFile) -> Vec<String> {
        f.tokens.iter().map(|t| t.text.clone()).collect()
    }

    #[test]
    fn comments_and_strings_are_separated() {
        let f = scan(
            "x.rs",
            "// a comment with unwrap()\nlet s = \"panic! inside\"; s.len();",
        );
        let idents: Vec<&str> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(!idents.contains(&"unwrap"), "comment text must be stripped");
        assert!(!idents.contains(&"panic"), "string text is not an ident");
        let strs: Vec<&str> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, ["panic! inside"]);
    }

    #[test]
    fn positions_are_one_based_lines_and_cols() {
        let f = scan("x.rs", "let a = 1;\n  let bb = 2.5;");
        let bb = f.tokens.iter().find(|t| t.text == "bb").unwrap();
        assert_eq!((bb.line, bb.col), (2, 7));
        let num = f.tokens.iter().find(|t| t.text == "2.5").unwrap();
        assert_eq!(num.kind, TokKind::Num);
        assert!(is_float_literal(&num.text));
    }

    #[test]
    fn floats_ranges_and_methods_disambiguate() {
        let f = scan("x.rs", "a[0..n]; 1.0e-3; 7.max(2); 3.; x != 0.5f64;");
        let nums: Vec<&str> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, ["0", "1.0e-3", "7", "2", "3.", "0.5f64"]);
        assert!(is_float_literal("1.0e-3"));
        assert!(is_float_literal("3."));
        assert!(is_float_literal("0.5f64"));
        assert!(!is_float_literal("7"));
        assert_eq!(float_value("0.5f64"), Some(0.5));
        assert_eq!(float_value("0.0"), Some(0.0));
    }

    #[test]
    fn lifetimes_and_char_literals_disambiguate() {
        let f = scan("x.rs", "fn f<'a>(x: &'a str) { let c = 'x'; }");
        assert!(f
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
        assert!(f
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Char && t.text == "x"));
    }

    #[test]
    fn raw_strings_scan_whole() {
        let f = scan("x.rs", r####"let s = r#"quoted "inner" text"#;"####);
        let s = f.tokens.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!(s.text, r#"quoted "inner" text"#);
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let src =
            "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\n";
        let f = scan("x.rs", src);
        let unwraps: Vec<bool> = f
            .tokens
            .iter()
            .filter(|t| t.text == "unwrap")
            .map(|t| t.in_test)
            .collect();
        assert_eq!(unwraps, [false, true]);
    }

    #[test]
    fn cfg_not_test_is_not_marked() {
        let f = scan("x.rs", "#[cfg(not(test))]\nfn live() { x.unwrap(); }");
        let u = f.tokens.iter().find(|t| t.text == "unwrap").unwrap();
        assert!(!u.in_test);
    }

    #[test]
    fn test_attr_fn_is_marked() {
        let f = scan("x.rs", "#[test]\nfn t() { v[0]; }\nfn live() { w[1]; }");
        let v = f.tokens.iter().find(|t| t.text == "v").unwrap();
        let w = f.tokens.iter().find(|t| t.text == "w").unwrap();
        assert!(v.in_test);
        assert!(!w.in_test);
    }

    #[test]
    fn allow_directives_parse_rule_and_reason() {
        let src = "// lint:allow(no-panic-serving, documented ablation hook)\nx.unwrap();\ny(); // lint:allow(float-total-order)\n";
        let f = scan("x.rs", src);
        assert_eq!(f.allows.len(), 2);
        assert_eq!(f.allows[0].rule, "no-panic-serving");
        assert_eq!(f.allows[0].reason, "documented ablation hook");
        assert_eq!(f.allows[0].line, 1);
        assert_eq!(f.allows[1].rule, "float-total-order");
        assert_eq!(f.allows[1].reason, "");
        assert_eq!(f.allows[1].line, 3);
    }

    #[test]
    fn multi_char_punct_combines() {
        let f = scan("x.rs", "a == b; c != d; e::f; g -> h;");
        let puncts: Vec<String> = texts(&f)
            .into_iter()
            .filter(|t| ["==", "!=", "::", "->"].contains(&t.as_str()))
            .collect();
        assert_eq!(puncts, ["==", "!=", "::", "->"]);
    }

    #[test]
    fn raw_identifiers_stay_single_tokens() {
        // `r#fn` / `r#mod` must not split into `r`, `#`, and a keyword —
        // that would desync item extraction into phantom declarations.
        let f = scan("x.rs", "fn r#fn() { r#mod(); let r#impl = 1; }");
        let idents: Vec<&str> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(idents.contains(&"r#fn"));
        assert!(idents.contains(&"r#mod"));
        assert!(idents.contains(&"r#impl"));
        assert_eq!(
            idents.iter().filter(|t| **t == "fn").count(),
            1,
            "only the real `fn` keyword may appear: {idents:?}"
        );
        assert!(!idents.contains(&"mod"), "r#mod must not leak a keyword");
    }

    #[test]
    fn byte_and_raw_byte_strings_scan_as_whole_literals() {
        let src = "let a = b\"fn {\"; let b = br#\"mod \" {\"#; let c = b\"\\\"esc\";";
        let f = scan("x.rs", src);
        let strs: Vec<&str> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, ["fn {", "mod \" {", "\"esc"]);
        // Braces inside the literals must not surface as punctuation.
        let braces = f.tokens.iter().filter(|t| t.text == "{").count();
        assert_eq!(braces, 0, "string braces leaked into token stream");
    }

    #[test]
    fn escaped_quote_char_literal_does_not_desync() {
        let src = "let q = '\\''; let n = '\\n'; let bs = '\\\\'; x.flag();";
        let f = scan("x.rs", src);
        let chars: Vec<&str> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(chars, ["\\'", "\\n", "\\\\"]);
        // The trailing call must still tokenize — a desync would swallow it.
        assert!(f.tokens.iter().any(|t| t.text == "flag"));
        assert!(!f.tokens.iter().any(|t| t.kind == TokKind::Str));
    }

    #[test]
    fn test_path_detection() {
        for (p, expect) in [
            ("crates/core/tests/plan_stress.rs", true),
            ("tests/snapshot_serving.rs", true),
            ("examples/persist_pipeline.rs", true),
            ("crates/core/src/plan.rs", false),
            ("crates/obs/benches/overhead.rs", true),
        ] {
            let f = scan(p, "");
            assert_eq!(f.is_test_path(), expect, "{p}");
        }
    }
}
