//! N-Triples reading and writing.
//!
//! Supports the subset of N-Triples that DBpedia dumps use: IRI subjects
//! and predicates; IRI or literal objects; literals with optional language
//! tags or `^^<datatype>` annotations. Well-known predicates
//! ([`crate::schema`]) are routed into the store's dedicated indexes
//! (types, categories, labels, aliases) instead of generic edges, matching
//! how PivotE treats DBpedia input.
//!
//! One line loop and one statement router serve every entry point:
//!
//! - [`parse`] / [`parse_reader`] — a whole document, or any
//!   [`io::BufRead`], straight into a fresh graph;
//! - [`parse_into_delta`] / [`parse_removed_into_delta`] — a whole
//!   document to one [`DeltaBatch`] of insert or retract ops;
//! - [`parse_stream`] / [`parse_removed_stream`] — any [`io::BufRead`] to
//!   a series of bounded [`DeltaBatch`]es, for appending to a live store.
//!
//! The router sends each statement to a small sink (a builder, or a
//! batch in either polarity), so bulk and incremental parsing can never
//! route a statement differently. The parser works on borrowed slices of
//! one reused line buffer: terms are never copied into intermediate
//! `String`s on the way to the builder (literals allocate only when they
//! actually contain escapes), and no entry point holds the document.

use crate::delta::DeltaBatch;
use crate::schema;
use crate::store::{KgBuilder, KnowledgeGraph};
use crate::triple::{Literal, LiteralKind};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::io;

/// A parse error with 1-based line number and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line where the error occurred.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "N-Triples parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Failure of a streaming parse: either the underlying reader or the
/// N-Triples syntax.
#[derive(Debug)]
pub enum StreamError {
    /// The reader failed.
    Io(io::Error),
    /// A statement failed to parse (with its 1-based line number).
    Parse(ParseError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "N-Triples stream read error: {e}"),
            StreamError::Parse(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Io(e) => Some(e),
            StreamError::Parse(e) => Some(e),
        }
    }
}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<ParseError> for StreamError {
    fn from(e: ParseError) -> Self {
        StreamError::Parse(e)
    }
}

/// What a completed [`parse_stream`] run saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Statements parsed (one delta op each).
    pub statements: usize,
    /// Input lines read, including skipped comments and blanks.
    pub lines: usize,
    /// Batches handed to the sink.
    pub batches: usize,
}

/// One parsed term, borrowing from the current line. Literal lexical forms
/// stay borrowed unless the source contained escapes.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TermRef<'a> {
    Iri(&'a str),
    Literal {
        lexical: Cow<'a, str>,
        kind: LiteralKind,
    },
}

/// The one line loop every entry point runs: reads `reader` a line at a
/// time into one reused buffer, skips blank and `# comment` lines, and
/// hands each statement with its 1-based line number to `statement`.
/// A line that is not UTF-8 is a [`ParseError`] on that line. Returns
/// the number of lines read.
fn for_each_statement<R: io::BufRead>(
    mut reader: R,
    mut statement: impl FnMut(&str, usize) -> Result<(), ParseError>,
) -> Result<usize, StreamError> {
    let mut buf = Vec::new();
    let mut lineno = 0;
    loop {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            return Ok(lineno);
        }
        lineno += 1;
        let raw = std::str::from_utf8(&buf).map_err(|_| err(lineno, "line is not valid UTF-8"))?;
        let line = raw.trim();
        if !line.is_empty() && !line.starts_with('#') {
            statement(line, lineno)?;
        }
    }
}

/// An in-memory document is read through the same line loop; reading a
/// `&str` can only fail on its syntax.
fn in_memory<T>(result: Result<T, StreamError>) -> Result<T, ParseError> {
    result.map_err(|e| match e {
        StreamError::Parse(e) => e,
        StreamError::Io(e) => unreachable!("reading a &str cannot fail: {e}"),
    })
}

/// Parse N-Triples from any buffered reader straight into a frozen
/// [`KnowledgeGraph`].
///
/// Each statement is routed into a [`KgBuilder`] while it still borrows
/// the line buffer — no [`DeltaOp`](crate::DeltaOp) and no owned string
/// per statement — so peak memory is the graph being built plus one
/// line, never the document. The routing is the same `match` that
/// [`parse_into_delta`] runs, so loading a document and appending it to
/// an empty graph intern every name in the same order.
pub fn parse_reader(reader: impl io::BufRead) -> Result<KnowledgeGraph, StreamError> {
    let mut b = KgBuilder::new();
    for_each_statement(reader, |line, lineno| route(line, lineno, &mut b))?;
    Ok(b.finish())
}

/// Parse an N-Triples document straight into a frozen [`KnowledgeGraph`]:
/// [`parse_reader`] over the document's bytes. Comments (`# ...`) and
/// blank lines are skipped.
pub fn parse(input: &str) -> Result<KnowledgeGraph, ParseError> {
    in_memory(parse_reader(input.as_bytes()))
}

/// Parse an N-Triples document into a [`DeltaBatch`] for appending to a
/// live graph via `KnowledgeGraph::apply`/`ShardedGraph::apply`. Each
/// statement is routed exactly like [`parse`] routes it (types,
/// categories, labels and aliases into their dedicated ops), in line
/// order — so parsing a document in two halves and appending the second
/// half yields the same graph as parsing the whole document.
pub fn parse_into_delta(input: &str) -> Result<DeltaBatch, ParseError> {
    let mut d = DeltaBatch::new();
    in_memory(for_each_statement(input.as_bytes(), |line, lineno| {
        route(line, lineno, &mut d)
    }))?;
    Ok(d)
}

/// Parse a *removed-triples* N-Triples document (the `removed.nt` half of
/// a DBpedia-Live style changeset) into a [`DeltaBatch`] of retract ops.
/// Each statement is routed through the same well-known-predicate schema
/// as [`parse_into_delta`], but to the retract form of the op: `rdf:type`
/// becomes a type retraction, `rdfs:label` a label retraction, redirects
/// and disambiguations alias retractions, and everything else a triple or
/// literal retraction. Statements naming unknown entities are no-ops at
/// apply time — a retract never interns.
pub fn parse_removed_into_delta(input: &str) -> Result<DeltaBatch, ParseError> {
    let mut d = DeltaBatch::new();
    in_memory(for_each_statement(input.as_bytes(), |line, lineno| {
        route(line, lineno, &mut Retract(&mut d))
    }))?;
    Ok(d)
}

/// Parse N-Triples from any buffered reader, handing the sink one
/// [`DeltaBatch`] of at most `max_ops` ops at a time.
///
/// This is the bounded-memory path for appending to a live store: one
/// line buffer and one batch are reused for the whole stream, so peak
/// memory is O(`max_ops`), not O(document). Ops arrive at the sink in
/// exact line order and batch boundaries fall at fixed op counts, so
/// splitting the same document into any sequence of read chunks yields
/// the identical op sequence (and therefore an identical graph) as
/// [`parse_into_delta`] — chunk boundaries cannot change interning order.
///
/// The batch passed to the sink is cleared and reused afterwards; sinks
/// that need to keep ops must copy them out. `max_ops` is clamped to at
/// least 1. The final partial batch is flushed before returning.
pub fn parse_stream<R, F>(reader: R, max_ops: usize, sink: F) -> Result<StreamStats, StreamError>
where
    R: io::BufRead,
    F: FnMut(&mut DeltaBatch),
{
    stream_batches(reader, max_ops, false, sink)
}

/// [`parse_stream`] for a removed-triples source: every batch handed to
/// the sink holds retract ops routed exactly as
/// [`parse_removed_into_delta`] routes them, with the same bounded-memory
/// and batch-boundary guarantees as the insert-polarity stream.
pub fn parse_removed_stream<R, F>(
    reader: R,
    max_ops: usize,
    sink: F,
) -> Result<StreamStats, StreamError>
where
    R: io::BufRead,
    F: FnMut(&mut DeltaBatch),
{
    stream_batches(reader, max_ops, true, sink)
}

/// The line loop into one reused batch of either polarity, handed to
/// `sink` every `max_ops` ops and once more for the remainder.
fn stream_batches<R, F>(
    reader: R,
    max_ops: usize,
    retract: bool,
    mut sink: F,
) -> Result<StreamStats, StreamError>
where
    R: io::BufRead,
    F: FnMut(&mut DeltaBatch),
{
    let max_ops = max_ops.max(1);
    let mut batch = DeltaBatch::new();
    let (mut statements, mut batches) = (0, 0);
    let lines = for_each_statement(reader, |line, lineno| {
        if retract {
            route(line, lineno, &mut Retract(&mut batch))?;
        } else {
            route(line, lineno, &mut batch)?;
        }
        statements += 1;
        if batch.len() >= max_ops {
            batches += 1;
            sink(&mut batch);
            batch.clear();
        }
        Ok(())
    })?;
    if !batch.is_empty() {
        batches += 1;
        sink(&mut batch);
    }
    Ok(StreamStats {
        statements,
        lines,
        batches,
    })
}

/// Where [`route`] sends a statement once the schema has said what it
/// means. Three impls: a [`DeltaBatch`] (insert ops), [`Retract`] (the
/// retract op of each) and a [`KgBuilder`] (bulk load, no op at all).
trait Sink {
    fn redirect(&mut self, alias: Cow<'_, str>, target: &str);
    fn disambiguation(&mut self, alias: Cow<'_, str>, target: &str);
    fn typed(&mut self, entity: &str, type_name: &str);
    fn label(&mut self, entity: &str, label: Cow<'_, str>);
    fn categorized(&mut self, entity: &str, category: Cow<'_, str>);
    fn triple(&mut self, s: &str, p: &str, o: &str);
    fn literal(&mut self, s: &str, p: &str, value: Literal);
}

/// The one statement router: parse `line` and send it to `sink` by its
/// predicate and object shape.
fn route(line: &str, lineno: usize, sink: &mut impl Sink) -> Result<(), ParseError> {
    let (subject, predicate, object) = parse_statement(line, lineno)?;
    let s = schema::local_name(subject);
    match (predicate, object) {
        // Redirect/disambiguation subjects are alias pages, not entities
        // of the graph proper — they become alias strings on the target,
        // so `parse(serialize(kg))` preserves the entity count.
        (schema::DBO_REDIRECT, TermRef::Iri(o)) => {
            sink.redirect(spaced(s), schema::local_name(o));
        }
        (schema::DBO_DISAMBIGUATES, TermRef::Iri(o)) => {
            sink.disambiguation(spaced(s), schema::local_name(o));
        }
        (schema::RDF_TYPE, TermRef::Iri(o)) => sink.typed(s, schema::local_name(o)),
        (schema::RDFS_LABEL, TermRef::Literal { lexical, .. }) => sink.label(s, lexical),
        (schema::DCT_SUBJECT, TermRef::Iri(o)) => {
            sink.categorized(s, spaced(schema::category_name(o)));
        }
        (_, TermRef::Iri(o)) => {
            sink.triple(s, schema::local_name(predicate), schema::local_name(o));
        }
        (_, TermRef::Literal { lexical, kind }) => {
            let value = Literal {
                lexical: lexical.into_owned(),
                kind,
            };
            sink.literal(s, schema::local_name(predicate), value);
        }
    }
    Ok(())
}

/// A resource local name as display text: underscores become spaces.
fn spaced(name: &str) -> Cow<'_, str> {
    if name.contains('_') {
        Cow::Owned(name.replace('_', " "))
    } else {
        Cow::Borrowed(name)
    }
}

impl Sink for DeltaBatch {
    fn redirect(&mut self, alias: Cow<'_, str>, target: &str) {
        DeltaBatch::redirect(self, alias, target);
    }
    fn disambiguation(&mut self, alias: Cow<'_, str>, target: &str) {
        DeltaBatch::disambiguation(self, alias, target);
    }
    fn typed(&mut self, entity: &str, type_name: &str) {
        DeltaBatch::typed(self, entity, type_name);
    }
    fn label(&mut self, entity: &str, label: Cow<'_, str>) {
        DeltaBatch::label(self, entity, label);
    }
    fn categorized(&mut self, entity: &str, category: Cow<'_, str>) {
        DeltaBatch::categorized(self, entity, category);
    }
    fn triple(&mut self, s: &str, p: &str, o: &str) {
        DeltaBatch::triple(self, s, p, o);
    }
    fn literal(&mut self, s: &str, p: &str, value: Literal) {
        DeltaBatch::literal(self, s, p, value);
    }
}

/// The retract polarity of a [`DeltaBatch`]: both alias kinds retract
/// an alias.
struct Retract<'a>(&'a mut DeltaBatch);

impl Sink for Retract<'_> {
    fn redirect(&mut self, alias: Cow<'_, str>, target: &str) {
        self.0.retract_alias(alias, target);
    }
    fn disambiguation(&mut self, alias: Cow<'_, str>, target: &str) {
        self.0.retract_alias(alias, target);
    }
    fn typed(&mut self, entity: &str, type_name: &str) {
        self.0.retract_typed(entity, type_name);
    }
    fn label(&mut self, entity: &str, label: Cow<'_, str>) {
        self.0.retract_label(entity, label);
    }
    fn categorized(&mut self, entity: &str, category: Cow<'_, str>) {
        self.0.retract_categorized(entity, category);
    }
    fn triple(&mut self, s: &str, p: &str, o: &str) {
        self.0.retract_triple(s, p, o);
    }
    fn literal(&mut self, s: &str, p: &str, value: Literal) {
        self.0.retract_literal(s, p, value);
    }
}

/// The bulk load: names are interned in the order
/// [`DeltaBatch::apply_to_builder`] interns the op [`route`] would have
/// made, so a built graph and a replayed delta get the same dense ids.
impl Sink for KgBuilder {
    fn redirect(&mut self, alias: Cow<'_, str>, target: &str) {
        let t = self.entity(target);
        KgBuilder::redirect(self, alias, t);
    }
    fn disambiguation(&mut self, alias: Cow<'_, str>, target: &str) {
        let t = self.entity(target);
        KgBuilder::disambiguation(self, alias, t);
    }
    fn typed(&mut self, entity: &str, type_name: &str) {
        let e = self.entity(entity);
        KgBuilder::typed(self, e, type_name);
    }
    fn label(&mut self, entity: &str, label: Cow<'_, str>) {
        let e = self.entity(entity);
        KgBuilder::label(self, e, label);
    }
    fn categorized(&mut self, entity: &str, category: Cow<'_, str>) {
        let e = self.entity(entity);
        KgBuilder::categorized(self, e, &category);
    }
    fn triple(&mut self, s: &str, p: &str, o: &str) {
        let s = self.entity(s);
        let p = self.predicate(p);
        let o = self.entity(o);
        KgBuilder::triple(self, s, p, o);
    }
    fn literal(&mut self, s: &str, p: &str, value: Literal) {
        let s = self.entity(s);
        let p = self.predicate(p);
        self.literal_triple(s, p, value);
    }
}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parse one statement into `(subject IRI, predicate IRI, object term)`,
/// borrowing everything from `line`.
fn parse_statement(line: &str, lineno: usize) -> Result<(&str, &str, TermRef<'_>), ParseError> {
    let mut rest = line;
    let subject = match take_term(&mut rest, lineno)? {
        TermRef::Iri(iri) => iri,
        TermRef::Literal { .. } => return Err(err(lineno, "subject must be an IRI")),
    };
    let predicate = match take_term(&mut rest, lineno)? {
        TermRef::Iri(iri) => iri,
        TermRef::Literal { .. } => return Err(err(lineno, "predicate must be an IRI")),
    };
    let object = take_term(&mut rest, lineno)?;
    let Some(tail) = rest.trim_start().strip_prefix('.') else {
        return Err(err(lineno, "statement must end with '.'"));
    };
    // one statement per line: after the '.' only a comment may follow
    let tail = tail.trim_start();
    if !tail.is_empty() && !tail.starts_with('#') {
        return Err(err(
            lineno,
            format!("unexpected text after '.': {tail:.20}"),
        ));
    }
    Ok((subject, predicate, object))
}

/// Consume one term (IRI or literal) from the front of `rest`.
fn take_term<'a>(rest: &mut &'a str, lineno: usize) -> Result<TermRef<'a>, ParseError> {
    *rest = rest.trim_start();
    let bytes = rest.as_bytes();
    match bytes.first() {
        Some(b'<') => {
            let end = rest
                .find('>')
                .ok_or_else(|| err(lineno, "unterminated IRI"))?;
            let iri = &rest[1..end];
            if iri.is_empty() {
                return Err(err(lineno, "empty IRI"));
            }
            *rest = &rest[end + 1..];
            Ok(TermRef::Iri(iri))
        }
        Some(b'"') => {
            let (lexical, consumed) = take_quoted(rest, lineno)?;
            *rest = &rest[consumed..];
            // optional language tag or datatype
            let mut kind = LiteralKind::String;
            if let Some(stripped) = rest.strip_prefix('@') {
                let end = stripped.find([' ', '\t']).unwrap_or(stripped.len());
                *rest = &stripped[end..];
            } else if let Some(stripped) = rest.strip_prefix("^^<") {
                let end = stripped
                    .find('>')
                    .ok_or_else(|| err(lineno, "unterminated datatype IRI"))?;
                let dt = &stripped[..end];
                kind = datatype_kind(dt);
                *rest = &stripped[end + 1..];
            }
            Ok(TermRef::Literal { lexical, kind })
        }
        Some(_) => Err(err(lineno, format!("unexpected term start: {rest:.20}"))),
        None => Err(err(lineno, "unexpected end of statement")),
    }
}

/// Parse a double-quoted string with `\"`, `\\`, `\n`, `\t`, `\r` escapes.
/// Returns the content — borrowed when the source contains no escapes —
/// and how many input bytes were consumed (including both quotes).
fn take_quoted<'a>(input: &'a str, lineno: usize) -> Result<(Cow<'a, str>, usize), ParseError> {
    debug_assert!(input.starts_with('"'));
    let body = &input[1..];
    let Some(stop) = body.find(['"', '\\']) else {
        return Err(err(lineno, "unterminated string literal"));
    };
    if body.as_bytes()[stop] == b'"' {
        // fast path: no escapes, borrow straight from the line
        return Ok((Cow::Borrowed(&body[..stop]), stop + 2));
    }
    let mut out = String::with_capacity(body.len());
    out.push_str(&body[..stop]);
    let mut chars = body[stop..].char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((Cow::Owned(out), 1 + stop + i + 1)),
            '\\' => {
                let (_, esc) = chars.next().ok_or_else(|| err(lineno, "dangling escape"))?;
                out.push(match esc {
                    'n' => '\n',
                    't' => '\t',
                    'r' => '\r',
                    '"' => '"',
                    '\\' => '\\',
                    other => return Err(err(lineno, format!("unknown escape \\{other}"))),
                });
            }
            other => out.push(other),
        }
    }
    Err(err(lineno, "unterminated string literal"))
}

fn datatype_kind(dt: &str) -> LiteralKind {
    match schema::local_name(dt) {
        "integer" | "int" | "long" | "nonNegativeInteger" => LiteralKind::Integer,
        "double" | "float" | "decimal" => LiteralKind::Double,
        "date" => LiteralKind::Date,
        _ => LiteralKind::String,
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out
}

fn datatype_iri(kind: LiteralKind) -> Option<&'static str> {
    match kind {
        LiteralKind::String => None,
        LiteralKind::Integer => Some("http://www.w3.org/2001/XMLSchema#integer"),
        LiteralKind::Double => Some("http://www.w3.org/2001/XMLSchema#double"),
        LiteralKind::Date => Some("http://www.w3.org/2001/XMLSchema#date"),
    }
}

/// Serialize a knowledge graph to N-Triples, inverse of [`parse`].
///
/// Types, categories, labels and aliases are written back with their
/// well-known predicates so that `parse(serialize(kg))` reconstructs the
/// same logical graph.
pub fn serialize(kg: &KnowledgeGraph) -> String {
    let mut out = String::new();
    let ent = |name: &str| format!("<{}{}>", schema::NS_RESOURCE, name);
    for e in kg.entity_ids() {
        let s = ent(kg.entity_name(e));
        if let Some(label) = kg.label(e) {
            let _ = writeln!(out, "{s} <{}> \"{}\" .", schema::RDFS_LABEL, escape(label));
        }
        for t in kg.types_of(e) {
            let _ = writeln!(
                out,
                "{s} <{}> <{}{}> .",
                schema::RDF_TYPE,
                schema::NS_ONTOLOGY,
                kg.type_name(t)
            );
        }
        for c in kg.categories_of(e) {
            let _ = writeln!(
                out,
                "{s} <{}> <{}{}> .",
                schema::DCT_SUBJECT,
                schema::NS_CATEGORY,
                kg.category_name(c).replace(' ', "_")
            );
        }
        for alias in kg.aliases(e) {
            let _ = writeln!(
                out,
                "{} <{}> {s} .",
                ent(&alias.replace(' ', "_")),
                schema::DBO_REDIRECT
            );
        }
        for (p, o) in kg.out_edges(e) {
            let _ = writeln!(
                out,
                "{s} <{}{}> {} .",
                schema::NS_ONTOLOGY,
                kg.predicate_name(p),
                ent(kg.entity_name(o))
            );
        }
        for (p, l) in kg.literals(e) {
            let dt = match datatype_iri(l.kind) {
                Some(iri) => format!("^^<{iri}>"),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "{s} <{}{}> \"{}\"{dt} .",
                schema::NS_ONTOLOGY,
                kg.predicate_name(p),
                escape(&l.lexical)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# a comment
<http://dbpedia.org/resource/Forrest_Gump> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://dbpedia.org/ontology/Film> .
<http://dbpedia.org/resource/Forrest_Gump> <http://www.w3.org/2000/01/rdf-schema#label> "Forrest Gump"@en .
<http://dbpedia.org/resource/Forrest_Gump> <http://dbpedia.org/ontology/starring> <http://dbpedia.org/resource/Tom_Hanks> .
<http://dbpedia.org/resource/Forrest_Gump> <http://purl.org/dc/terms/subject> <http://dbpedia.org/resource/Category:American_films> .
<http://dbpedia.org/resource/Forrest_Gump> <http://dbpedia.org/ontology/runtime> "142"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://dbpedia.org/resource/Geenbow> <http://dbpedia.org/ontology/wikiPageRedirects> <http://dbpedia.org/resource/Forrest_Gump> .
"#;

    #[test]
    fn parses_dbpedia_style_sample() {
        let kg = parse(SAMPLE).unwrap();
        let gump = kg.entity("Forrest_Gump").unwrap();
        assert_eq!(kg.label(gump), Some("Forrest Gump"));
        assert!(kg.type_id("Film").is_some());
        assert_eq!(
            kg.category_name(kg.categories_of(gump).next().unwrap()),
            "American films"
        );
        let starring = kg.predicate("starring").unwrap();
        assert_eq!(kg.objects(gump, starring).len(), 1);
        let lit: Vec<_> = kg.literals(gump).collect();
        assert_eq!(lit[0].1.as_integer(), Some(142));
        assert_eq!(kg.aliases(gump), &["Geenbow".to_owned()]);
    }

    #[test]
    fn rejects_literal_subject() {
        let e = parse(r#""x" <http://p> <http://o> ."#).unwrap_err();
        assert!(e.message.contains("subject"));
        assert_eq!(e.line, 1);
    }

    #[test]
    fn rejects_missing_dot() {
        let e = parse("<http://s> <http://p> <http://o>").unwrap_err();
        assert!(e.message.contains("'.'"));
    }

    #[test]
    fn rejects_unterminated_iri_and_string() {
        assert!(parse("<http://s <http://p> <http://o> .").is_err());
        assert!(parse(r#"<http://s> <http://p> "oops ."#).is_err());
    }

    #[test]
    fn rejects_unknown_escape() {
        let e = parse(r#"<http://s> <http://p> "bad\q" ."#).unwrap_err();
        assert!(e.message.contains("escape"));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let src = r#"<http://s> <http://p> "line\nbreak \"quoted\" tab\t" ."#;
        let kg = parse(src).unwrap();
        let s = kg.entity("s").unwrap();
        let (_, lit) = kg.literals(s).next().unwrap();
        assert_eq!(lit.lexical, "line\nbreak \"quoted\" tab\t");
    }

    #[test]
    fn serialize_then_parse_preserves_structure() {
        let kg = parse(SAMPLE).unwrap();
        let nt = serialize(&kg);
        let kg2 = parse(&nt).unwrap();
        assert_eq!(kg2.entity_count(), kg.entity_count());
        assert_eq!(kg2.relation_count(), kg.relation_count());
        assert_eq!(kg2.type_count(), kg.type_count());
        assert_eq!(kg2.category_count(), kg.category_count());
        let gump = kg2.entity("Forrest_Gump").unwrap();
        assert_eq!(kg2.label(gump), Some("Forrest Gump"));
        assert_eq!(kg2.aliases(gump), &["Geenbow".to_owned()]);
        let lit: Vec<_> = kg2.literals(gump).collect();
        assert_eq!(lit[0].1.as_integer(), Some(142));
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let kg = parse("").unwrap();
        assert_eq!(kg.entity_count(), 0);
    }

    /// Comments and blank lines (including indented and whitespace-only
    /// ones) are skipped by every entry point identically.
    #[test]
    fn comments_and_blanks_skipped_in_all_entry_points() {
        let src = "\n# leading comment\n  \t \n<http://s> <http://p> <http://o> .\n   # indented comment\n\n<http://s2> <http://p> <http://o> .\n\t\n# trailing comment";
        let via_builder = parse_reader(src.as_bytes()).unwrap();
        assert_eq!(via_builder.entity_count(), 3); // s, s2, o

        let via_delta = parse_into_delta(src).unwrap();
        assert_eq!(via_delta.len(), 2);

        let mut streamed = DeltaBatch::new();
        let stats = parse_stream(src.as_bytes(), 1, |b| {
            for op in b.ops() {
                streamed.push(op.clone());
            }
        })
        .unwrap();
        assert_eq!(stats.statements, 2);
        assert_eq!(stats.batches, 2);
        assert_eq!(streamed.ops(), via_delta.ops());
    }

    /// The streamed op sequence equals the bulk `parse_into_delta` op
    /// sequence regardless of batch size, and the final partial batch is
    /// flushed.
    #[test]
    fn parse_stream_matches_bulk_parse() {
        let bulk = parse_into_delta(SAMPLE).unwrap();
        for max_ops in [1, 2, 3, 100] {
            let mut streamed = DeltaBatch::new();
            let mut sizes = Vec::new();
            let stats = parse_stream(SAMPLE.as_bytes(), max_ops, |b| {
                sizes.push(b.len());
                for op in b.ops() {
                    streamed.push(op.clone());
                }
            })
            .unwrap();
            assert_eq!(streamed.ops(), bulk.ops(), "max_ops={max_ops}");
            assert_eq!(stats.statements, bulk.len());
            assert_eq!(stats.batches, sizes.len());
            assert!(sizes.iter().all(|&s| s <= max_ops.max(1)));
        }
    }

    /// A removed-triples document routes every statement to the retract
    /// twin of the op the added-triples parser would emit, and applying
    /// `added` then `removed` of the same document leaves the store
    /// holding only tombstones (the dictionaries survive — a retract
    /// never removes a name).
    #[test]
    fn parse_removed_mirrors_parse_added() {
        use crate::delta::DeltaOp;
        let removed = parse_removed_into_delta(SAMPLE).unwrap();
        let added = parse_into_delta(SAMPLE).unwrap();
        assert_eq!(removed.len(), added.len());
        assert!(removed.ops().iter().all(DeltaOp::is_retract));

        let mut streamed = DeltaBatch::new();
        let stats = parse_removed_stream(SAMPLE.as_bytes(), 2, |b| {
            for op in b.ops() {
                streamed.push(op.clone());
            }
        })
        .unwrap();
        assert_eq!(streamed.ops(), removed.ops());
        assert_eq!(stats.statements, removed.len());

        let mut kg = parse(SAMPLE).unwrap();
        let gump = kg.entity("Forrest_Gump").unwrap();
        kg.apply(&removed);
        assert_eq!(kg.relation_count(), 0);
        assert_eq!(kg.label(gump), None);
        assert_eq!(kg.types_of(gump).count(), 0);
        assert_eq!(kg.categories_of(gump).count(), 0);
        assert_eq!(kg.literals(gump).count(), 0);
        assert!(kg.aliases(gump).is_empty());
        assert!(kg.tombstone_count() > 0);
        assert_eq!(kg.entity("Forrest_Gump"), Some(gump));
    }

    #[test]
    fn parse_stream_reports_parse_errors_with_line_numbers() {
        let src = "<http://s> <http://p> <http://o> .\n<http://s> bad .\n";
        let e = parse_stream(src.as_bytes(), 8, |_| {}).unwrap_err();
        match e {
            StreamError::Parse(p) => assert_eq!(p.line, 2),
            StreamError::Io(_) => panic!("expected parse error"),
        }
    }

    /// Bytes that are not UTF-8 fail the line they are on, through the
    /// same line loop as a syntax error — not as an I/O error.
    #[test]
    fn a_line_that_is_not_utf8_is_a_parse_error_on_that_line() {
        let src = b"<http://s> <http://p> <http://o> .\n# ok\n<http://s> <http://p> \"\xff\" .\n";
        match parse_reader(&src[..]) {
            Err(StreamError::Parse(e)) => {
                assert_eq!(e.line, 3);
                assert!(e.message.contains("UTF-8"), "{e}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
        match parse_stream(&src[..], 8, |_| {}) {
            Err(StreamError::Parse(e)) => assert_eq!(e.line, 3),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn parse_stream_empty_input_sends_no_batches() {
        let stats = parse_stream("".as_bytes(), 8, |_| panic!("no batch expected")).unwrap();
        assert_eq!(stats, StreamStats::default());
    }

    /// Borrowed-literal fast path and escaped slow path agree with the
    /// old always-owned behaviour.
    #[test]
    fn quoted_fast_and_slow_paths() {
        let (plain, n) = take_quoted(r#""hello world" ."#, 1).unwrap();
        assert!(matches!(plain, Cow::Borrowed("hello world")));
        assert_eq!(n, 13);
        let (esc, n) = take_quoted(r#""a\"b\\c" ."#, 1).unwrap();
        assert_eq!(esc.as_ref(), "a\"b\\c");
        assert!(matches!(esc, Cow::Owned(_)));
        assert_eq!(n, 9);
    }
}
