//! The workspace's one JSON writer and one JSON reader, and the trace
//! codec built on them. There is no serde: the build environment has
//! no registry access (see `shims/README.md`).
//!
//! [`Writer`] writes every JSON artifact: traces (below), metric
//! snapshots and flamegraphs (`obs`), adapt and repair reports (the
//! root package's `adapt` and `reinfer`) and `BENCH_analysis.json`. It
//! streams into a sink — the caller's `String` by default, any
//! [`fmt::Write`] otherwise: [`crate::Trace::digest`] hashes a trace as
//! [`write_trace`] writes it — builds no tree, places every separator,
//! escapes every string and renders every number. The caller fixes the
//! key order and nothing writes whitespace, so byte equality of two
//! encodings is equality of what they encode.
//!
//! [`parse`] reads every JSON the workspace reads back, and only what
//! some caller reads (whitespace is allowed between tokens):
//!
//! ```text
//! value  := object | array | string | number
//! object := '{' [ string ':' value { ',' string ':' value } ] '}'
//! array  := '[' [ value { ',' value } ] ']'
//! string := '"' { char | '\' ( '"' | '\' | '/' | 'n' | 'r' | 't' | 'u' hex4 ) } '"'
//! number := digit { digit } [ '.' digit { digit } ]
//! ```
//!
//! An integer is read exactly into a `u64`, and a wider one is refused.
//! There are no signs or exponents, and `true`, `false` and `null` are
//! refused: reports write them, nothing reads them. Nesting deeper than
//! the caller's bound is refused before it is recursed into.
//!
//! The trace format (`ali-trace-v1`):
//!
//! ```text
//! {"format":"ali-trace-v1",
//!  "dropped":0,
//!  "meta":[["mode","MultiGrain"],...],
//!  "allocs":[[base,len,class],...],
//!  "events":[[epoch,tid,clock,KIND],...]}
//! KIND := ["enter",s] | ["exit",s]
//!       | ["acq",NODE,MODE] | ["rel",NODE,MODE]
//!       | ["pc"]
//!       | ["rd",addr] | ["wr",addr] | ["al",base,len]
//!       | ["cmt",reads,writes] | ["ab"] | ["fb"] | ["flt",CLASS]
//!       | ["qr",section,healed01,probation]
//!       | ["wk",NODE,MODE,depth,woken]
//!       | ["ri",section,candidate,accepted01]
//! NODE := ["root"] | ["pts",p] | ["cell",p,addr] | ["range",p,base]
//! MODE := "IS" | "IX" | "S" | "SIX" | "X"
//! ```
//!
//! [`decode`] reads the `events` array one event at a time, straight
//! onto the trace's [`EventLog`]. A typed reader takes an event in the
//! spelling [`write_trace`] gives it — no whitespace, no escape, no
//! decimal, every number within its field, a known tag with its fields
//! — borrowing its strings from the input and building no tree. On
//! anything else it gives up, and the event is read again from its
//! first byte as a [`Value`] tree. Every error is made on that path,
//! so what the reader accepts and what it reports do not depend on
//! which path an event took. Both paths turn fields into a kind
//! through one table, `kind_from` (and `node_from` for a lock node).

use crate::event::{Event, EventKind, EventLog, FaultClass};
use crate::{AllocRecord, Trace};
use mglock::{FineAddr, Mode, NodeKey};
use std::fmt;

const FORMAT: &str = "ali-trace-v1";

// ----------------------------------------------------------------------
// Writing

/// Writes `s` as a JSON string literal, copying the runs between
/// escapes whole. Every byte that needs an escape is ASCII, so each
/// run ends on a character boundary.
fn push_escaped<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        if escape.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(escape)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// A streaming JSON writer into a sink: the caller's `String` by
/// default, or any other [`fmt::Write`] (the trace digest hashes what
/// it is given).
///
/// Each method writes one token and returns the writer, so a record
/// reads as a chain: `w.object().key("k").u64(3).end_object()`. The
/// writer places every `,` and `:`; the caller closes what it opens
/// and puts a [`Writer::key`] before each object member. A sink's
/// errors are dropped: the sinks written to, a `String` and the
/// digest's hash, cannot fail.
pub struct Writer<'a, W: fmt::Write = String> {
    out: &'a mut W,
    /// Whether the next token follows a sibling and needs a `,`.
    comma: bool,
}

impl<'a, W: fmt::Write> Writer<'a, W> {
    pub fn new(out: &'a mut W) -> Writer<'a, W> {
        Writer { out, comma: false }
    }

    /// Writes a value (or a key, or an opening bracket) after a `,`
    /// when it follows a sibling.
    fn token(&mut self, write: impl FnOnce(&mut W) -> fmt::Result) -> &mut Self {
        if self.comma {
            let _ = self.out.write_char(',');
        }
        let _ = write(self.out);
        self.comma = true;
        self
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.token(|out| out.write_char(bracket)).comma = false;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        let _ = self.out.write_char(bracket);
        self.comma = true;
        self
    }

    pub fn object(&mut self) -> &mut Self {
        self.open('{')
    }

    pub fn end_object(&mut self) -> &mut Self {
        self.close('}')
    }

    pub fn array(&mut self) -> &mut Self {
        self.open('[')
    }

    pub fn end_array(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Names the next object member.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.token(|out| {
            push_escaped(out, key)?;
            out.write_char(':')
        })
        .comma = false;
        self
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.token(|out| push_escaped(out, s))
    }

    pub fn u64(&mut self, n: u64) -> &mut Self {
        // The digits are rendered here: `write!` costs more than they do.
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        let mut rest = n;
        loop {
            start -= 1;
            digits[start] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        let digits = std::str::from_utf8(&digits[start..]).unwrap_or_default();
        self.token(|out| out.write_str(digits))
    }

    /// A decimal with exactly `places` digits after the point, as
    /// `format!("{x:.places$}")` renders it.
    pub fn fixed(&mut self, x: f64, places: usize) -> &mut Self {
        self.token(|out| write!(out, "{x:.places$}"))
    }

    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.token(|out| out.write_str(if b { "true" } else { "false" }))
    }

    pub fn null(&mut self) -> &mut Self {
        self.token(|out| out.write_str("null"))
    }
}

fn write_node<W: fmt::Write>(w: &mut Writer<W>, n: NodeKey) {
    w.array().str(n.class());
    match n {
        NodeKey::Root => {}
        NodeKey::Pts(p) => {
            w.u64(p.into());
        }
        NodeKey::Fine(p, FineAddr::Cell(a) | FineAddr::Range(a)) => {
            w.u64(p.into()).u64(a);
        }
    }
    w.end_array();
}

fn write_kind<W: fmt::Write>(w: &mut Writer<W>, k: EventKind) {
    w.array();
    match k {
        EventKind::SectionEnter { section } => w.str("enter").u64(section.into()),
        EventKind::SectionExit { section } => w.str("exit").u64(section.into()),
        EventKind::LockAcquire { node, mode } | EventKind::LockRelease { node, mode } => {
            let acquire = matches!(k, EventKind::LockAcquire { .. });
            w.str(if acquire { "acq" } else { "rel" });
            write_node(w, node);
            w.str(mode.tag())
        }
        EventKind::PlanComplete => w.str("pc"),
        EventKind::Read { addr } => w.str("rd").u64(addr),
        EventKind::Write { addr } => w.str("wr").u64(addr),
        EventKind::Alloc { base, len } => w.str("al").u64(base).u64(len),
        EventKind::StmCommit { reads, writes } => w.str("cmt").u64(reads).u64(writes),
        EventKind::StmAbort => w.str("ab"),
        EventKind::StmFallback => w.str("fb"),
        EventKind::Fault { class } => w.str("flt").str(class.tag()),
        // The reader has no booleans: flags are written as 0/1.
        EventKind::Quarantine {
            section,
            healed,
            probation,
        } => w
            .str("qr")
            .u64(section.into())
            .u64(healed.into())
            .u64(probation.into()),
        EventKind::WakeDecision {
            node,
            mode,
            depth,
            woken,
        } => {
            w.str("wk");
            write_node(w, node);
            w.str(mode.tag()).u64(depth.into()).u64(woken.into())
        }
        EventKind::Reinfer {
            section,
            candidate,
            accepted,
        } => w
            .str("ri")
            .u64(section.into())
            .u64(candidate.into())
            .u64(accepted.into()),
    };
    w.end_array();
}

/// Writes the canonical JSON encoding of `t` into `out`.
pub fn write_trace<W: fmt::Write>(out: &mut W, t: &Trace) {
    let mut w = Writer::new(out);
    w.object().key("format").str(FORMAT);
    w.key("dropped").u64(t.dropped).key("meta").array();
    for (k, v) in &t.meta {
        w.array().str(k).str(v).end_array();
    }
    w.end_array().key("allocs").array();
    for a in &t.allocs {
        w.array().u64(a.base).u64(a.len);
        w.u64(a.class.into()).end_array();
    }
    w.end_array().key("events").array();
    for e in &t.events {
        w.array().u64(e.epoch).u64(e.tid.into()).u64(e.clock);
        write_kind(&mut w, e.kind);
        w.end_array();
    }
    w.end_array().end_object();
}

// ----------------------------------------------------------------------
// Reading

/// A parsed JSON value: the subset [`parse`] reads.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A number without a fractional part, exact.
    Int(u64),
    /// A number with a fractional part.
    Dec(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Members in document order.
    Obj(Vec<(String, Value)>),
}

type PResult<T> = Result<T, String>;

/// Typed accessors: each names `what` it expected in its error.
impl Value {
    pub fn as_u64(&self, what: &str) -> PResult<u64> {
        match self {
            Value::Int(n) => Ok(*n),
            _ => Err(format!("json: {what} must be an integer")),
        }
    }

    /// An integer or a decimal.
    pub fn as_f64(&self, what: &str) -> PResult<f64> {
        match self {
            Value::Int(n) => Ok(*n as f64),
            Value::Dec(x) => Ok(*x),
            _ => Err(format!("json: {what} must be a number")),
        }
    }

    pub fn as_str(&self, what: &str) -> PResult<&str> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(format!("json: {what} must be a string")),
        }
    }

    pub fn as_arr(&self, what: &str) -> PResult<&[Value]> {
        match self {
            Value::Arr(items) => Ok(items),
            _ => Err(format!("json: {what} must be an array")),
        }
    }

    pub fn as_obj(&self, what: &str) -> PResult<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Ok(members),
            _ => Err(format!("json: {what} must be an object")),
        }
    }

    /// The first member named `name` of this object.
    pub fn field(&self, name: &str) -> PResult<&Value> {
        let Value::Obj(members) = self else {
            return Err(format!("json: `{name}` must be read from an object"));
        };
        members
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("json: missing `{name}`"))
    }
}

/// A cursor over the input. `pos` is always a character boundary of
/// `src`: every step consumes whole ASCII bytes or one whole character.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Containers open around `pos`, and the caller's bound on them.
    /// [`Parser::value`] recurses once per level, so the bound is also
    /// what keeps hostile input off the call stack.
    depth: usize,
    max_depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &str) -> PResult<T> {
        Err(format!("json: {what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> PResult<()> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected `{}`", c as char))
        }
    }

    fn at(&mut self, b: u8) -> bool {
        self.skip_ws();
        self.peek() == Some(b)
    }

    fn value(&mut self) -> PResult<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'[') => self.items(b']', Parser::value).map(Value::Arr),
            Some(b'{') => self.items(b'}', Parser::member).map(Value::Obj),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b) if b.is_ascii_digit() => self.number(),
            _ => self.err("expected a value"),
        }
    }

    /// An object member's key and the `:` after it.
    fn key(&mut self) -> PResult<String> {
        self.skip_ws();
        let key = self.string()?;
        self.expect(b':').map(|()| key)
    }

    fn member(&mut self) -> PResult<(String, Value)> {
        Ok((self.key()?, self.value()?))
    }

    /// At an opening bracket: the `,`-separated items up to `close`,
    /// one level deeper.
    fn items<T>(
        &mut self,
        close: u8,
        mut f: impl FnMut(&mut Self) -> PResult<T>,
    ) -> PResult<Vec<T>> {
        if self.depth == self.max_depth {
            return self.err("nesting too deep");
        }
        self.pos += 1;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                items.push(f(self)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => break,
                    _ => return self.err(&format!("expected `,` or `{}`", close as char)),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(items)
    }

    fn digits(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
    }

    /// At a digit: an integer, or a decimal when a `.` and at least one
    /// more digit follow.
    fn number(&mut self) -> PResult<Value> {
        let start = self.pos;
        self.digits();
        if self.peek() != Some(b'.') {
            return self.src[start..self.pos]
                .parse()
                .map(Value::Int)
                .map_err(|_| format!("json: integer wider than 64 bits at byte {start}"));
        }
        self.pos += 1;
        let fraction = self.pos;
        self.digits();
        if self.pos == fraction {
            return self.err("expected a digit after `.`");
        }
        self.src[start..self.pos]
            .parse()
            .map(Value::Dec)
            .map_err(|_| format!("json: bad decimal at byte {start}"))
    }

    fn string(&mut self) -> PResult<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.src.get(self.pos..self.pos + 4);
                            let cp = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
                            let Some(c) = cp.and_then(char::from_u32) else {
                                return self.err("bad \\u escape");
                            };
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                _ => {
                    // `b` leads the character at the boundary we
                    // stepped over: copy that one character.
                    let start = self.pos - 1;
                    let c = self.src[start..].chars().next().expect("non-empty");
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }
}

/// Parses one JSON document (see the module docs for the grammar),
/// refusing containers nested more than `max_depth` deep.
///
/// # Errors
///
/// Returns a rendered message, with the byte offset where it applies,
/// on input outside the grammar.
pub fn parse(text: &str, max_depth: usize) -> Result<Value, String> {
    document(text, max_depth, Parser::value)
}

/// The one value `read` reads from `text`, and nothing after it.
fn document<'a, T>(
    text: &'a str,
    max_depth: usize,
    read: impl FnOnce(&mut Parser<'a>) -> PResult<T>,
) -> PResult<T> {
    let mut p = Parser {
        src: text,
        pos: 0,
        depth: 0,
        max_depth,
    };
    let v = read(&mut p)?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return p.err("trailing content");
    }
    Ok(v)
}

/// The deepest nesting the trace format uses: object → `events` array
/// → event → kind → node.
const MAX_DEPTH: usize = 5;

/// A field of an event kind or of a node as a reader holds it: a tree
/// [`Value`], or a [`Token`] the typed reader read in place. Both go
/// through [`kind_from`] and [`node_from`], the format's one statement
/// of which tag carries which fields.
trait Field {
    fn u64(&self, what: &str) -> PResult<u64>;
    fn str(&self, what: &str) -> PResult<&str>;
    fn node(&self) -> PResult<NodeKey>;

    /// Refuses an integer wider than 32 bits rather than truncating it.
    fn u32(&self, what: &str) -> PResult<u32> {
        u32::try_from(self.u64(what)?).map_err(|_| format!("json: {what} does not fit in 32 bits"))
    }
}

impl Field for Value {
    fn u64(&self, what: &str) -> PResult<u64> {
        self.as_u64(what)
    }

    fn str(&self, what: &str) -> PResult<&str> {
        self.as_str(what)
    }

    fn node(&self) -> PResult<NodeKey> {
        let items = self.as_arr("node")?;
        let tag = items
            .first()
            .ok_or("json: empty node")?
            .as_str("node tag")?;
        node_from(tag, &items[1..])
    }
}

/// A field the typed reader read: borrowed from the input, never
/// allocated.
#[derive(Clone, Copy)]
enum Token<'a> {
    Int(u64),
    Str(&'a str),
    Node(NodeKey),
}

/// The typed reader drops a field's error and rereads the event as a
/// tree, which names it, so a mismatch here says nothing.
impl Field for Token<'_> {
    fn u64(&self, _: &str) -> PResult<u64> {
        match *self {
            Token::Int(n) => Ok(n),
            _ => Err(String::new()),
        }
    }

    fn str(&self, _: &str) -> PResult<&str> {
        match *self {
            Token::Str(s) => Ok(s),
            _ => Err(String::new()),
        }
    }

    fn node(&self) -> PResult<NodeKey> {
        match *self {
            Token::Node(n) => Ok(n),
            _ => Err(String::new()),
        }
    }
}

fn mode_from(f: &impl Field) -> PResult<Mode> {
    f.str("mode")?.parse().map_err(|e| format!("json: {e}"))
}

fn flag_from(f: &impl Field, what: &str) -> PResult<bool> {
    match f.u64(what)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(format!("json: {what} must be 0 or 1")),
    }
}

/// The node `tag` names, from the fields after the tag.
fn node_from(tag: &str, fields: &[impl Field]) -> PResult<NodeKey> {
    // The class names are `mglock`'s: build the nodes of this shape and
    // keep the one whose class is the tag.
    let shaped = match fields {
        [] => [Some(NodeKey::Root), None],
        [pts] => [Some(NodeKey::Pts(pts.u32("pts")?)), None],
        [pts, at] => {
            let (pts, at) = (pts.u32("pts")?, at.u64("addr")?);
            [FineAddr::Cell(at), FineAddr::Range(at)].map(|a| Some(NodeKey::Fine(pts, a)))
        }
        _ => [None, None],
    };
    shaped
        .into_iter()
        .flatten()
        .find(|n| n.class() == tag)
        .ok_or_else(|| format!("json: unknown node `{tag}`"))
}

/// The event kind `tag` names, from the fields after the tag.
fn kind_from(tag: &str, fields: &[impl Field]) -> PResult<EventKind> {
    let num = |i: usize| fields[i].u64(tag);
    let num32 = |i: usize| fields[i].u32(tag);
    Ok(match (tag, fields.len()) {
        ("enter", 1) => EventKind::SectionEnter { section: num32(0)? },
        ("exit", 1) => EventKind::SectionExit { section: num32(0)? },
        ("acq", 2) | ("rel", 2) => {
            let node = fields[0].node()?;
            let mode = mode_from(&fields[1])?;
            if tag == "acq" {
                EventKind::LockAcquire { node, mode }
            } else {
                EventKind::LockRelease { node, mode }
            }
        }
        ("pc", 0) => EventKind::PlanComplete,
        ("rd", 1) => EventKind::Read { addr: num(0)? },
        ("wr", 1) => EventKind::Write { addr: num(0)? },
        ("al", 2) => EventKind::Alloc {
            base: num(0)?,
            len: num(1)?,
        },
        ("cmt", 2) => EventKind::StmCommit {
            reads: num(0)?,
            writes: num(1)?,
        },
        ("ab", 0) => EventKind::StmAbort,
        ("fb", 0) => EventKind::StmFallback,
        ("flt", 1) => EventKind::Fault {
            class: FaultClass::from_tag(fields[0].str("fault class")?)
                .ok_or_else(|| "json: unknown fault class".to_owned())?,
        },
        ("qr", 3) => EventKind::Quarantine {
            section: num32(0)?,
            healed: flag_from(&fields[1], "qr healed flag")?,
            probation: num32(2)?,
        },
        ("wk", 4) => EventKind::WakeDecision {
            node: fields[0].node()?,
            mode: mode_from(&fields[1])?,
            depth: num32(2)?,
            woken: num32(3)?,
        },
        ("ri", 3) => EventKind::Reinfer {
            section: num32(0)?,
            candidate: num32(1)?,
            accepted: flag_from(&fields[2], "ri accepted flag")?,
        },
        _ => return Err(format!("json: unknown event kind `{tag}`")),
    })
}

/// The trace `root` holds, with the events [`decode`] streamed (or the
/// first of them that did not convert).
fn trace_from(root: &Value, events: PResult<EventLog>) -> PResult<Trace> {
    let format = root.field("format")?.as_str("format")?;
    if format != FORMAT {
        return Err(format!("json: unsupported format `{format}`"));
    }
    let mut t = Trace {
        dropped: root.field("dropped")?.as_u64("dropped")?,
        ..Trace::default()
    };
    for pair in root.field("meta")?.as_arr("meta")? {
        let [k, v] = pair.as_arr("meta entry")? else {
            return Err("json: meta entries are [key,value]".into());
        };
        t.meta.push((
            k.as_str("meta key")?.to_owned(),
            v.as_str("meta value")?.to_owned(),
        ));
    }
    for rec in root.field("allocs")?.as_arr("allocs")? {
        let [base, len, class] = rec.as_arr("alloc record")? else {
            return Err("json: alloc records are [base,len,class]".into());
        };
        t.allocs.push(AllocRecord {
            base: base.as_u64("base")?,
            len: len.as_u64("len")?,
            class: class.u32("class")?,
        });
    }
    // Streamed `events` stand in the tree as an empty array.
    root.field("events")?.as_arr("events")?;
    t.events = events?;
    Ok(t)
}

fn event_from(v: &Value) -> PResult<Event> {
    let [epoch, tid, clock, kind] = v.as_arr("event")? else {
        return Err("json: events are [epoch,tid,clock,kind]".into());
    };
    let fields = kind.as_arr("event kind")?;
    let tag = fields
        .first()
        .ok_or("json: empty kind")?
        .as_str("kind tag")?;
    Ok(Event {
        epoch: epoch.as_u64("epoch")?,
        tid: tid.u32("tid")?,
        clock: clock.as_u64("clock")?,
        kind: kind_from(tag, &fields[1..])?,
    })
}

impl<'a> Parser<'a> {
    /// Reads one event in its canonical spelling — no whitespace, no
    /// escape, no decimal, every number within its field, a known tag
    /// with its fields — without building a tree or a string. `None`
    /// on anything else, wherever it stopped: the caller rewinds to the
    /// event's first byte and reads it as a tree, which names the
    /// error, if there is one.
    fn event(&mut self) -> Option<Event> {
        self.eat(b'[')?;
        let epoch = self.int()?;
        self.eat(b',')?;
        let tid = u32::try_from(self.int()?).ok()?;
        self.eat(b',')?;
        let clock = self.int()?;
        self.eat(b',')?;
        self.eat(b'[')?;
        let tag = self.tag()?;
        let mut fields = [Token::Int(0); 4];
        let n = self.fields(&mut fields, Parser::token)?;
        self.eat(b']')?;
        let kind = kind_from(tag, &fields[..n]).ok()?;
        Some(Event {
            epoch,
            tid,
            clock,
            kind,
        })
    }

    /// Steps over `b` if it is next.
    fn eat(&mut self, b: u8) -> Option<()> {
        (self.peek() == Some(b)).then(|| self.pos += 1)
    }

    /// Digits, as a `u64`; `None` when there are none or they overflow.
    fn int(&mut self) -> Option<u64> {
        let start = self.pos;
        let mut n = 0u64;
        while let Some(d) = self.peek().filter(u8::is_ascii_digit) {
            n = n.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
            self.pos += 1;
        }
        (self.pos > start).then_some(n)
    }

    /// The raw text up to the next `"`, borrowed from the input. An
    /// escape is not undone: no name in the format has a `\` in it, so
    /// an escaped name matches none and the event goes to the tree.
    fn tag(&mut self) -> Option<&'a str> {
        self.eat(b'"')?;
        let start = self.pos;
        self.pos += self.src.as_bytes()[start..]
            .iter()
            .position(|&b| b == b'"')?;
        let tag = &self.src[start..self.pos];
        self.pos += 1;
        Some(tag)
    }

    /// `,`-led fields up to the closing `]`, into `buf`; their count.
    fn fields<T>(
        &mut self,
        buf: &mut [T],
        mut read: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<usize> {
        let mut n = 0;
        while self.eat(b',').is_some() {
            *buf.get_mut(n)? = read(self)?;
            n += 1;
        }
        self.eat(b']')?;
        Some(n)
    }

    /// A kind's field: an integer, a string or a node.
    fn token(&mut self) -> Option<Token<'a>> {
        match self.peek()? {
            b'"' => self.tag().map(Token::Str),
            b'[' => {
                self.pos += 1;
                let tag = self.tag()?;
                let mut fields = [Token::Int(0); 2];
                let n = self.fields(&mut fields, |p| p.int().map(Token::Int))?;
                node_from(tag, &fields[..n]).ok().map(Token::Node)
            }
            _ => self.int().map(Token::Int),
        }
    }
}

/// Parses a trace from its canonical JSON encoding. The first `events`
/// array is pushed onto the trace's [`EventLog`] as it streams, each
/// event read by the typed reader or, where that gives up, as a tree of
/// that event alone; its first conversion error still comes last, as
/// if the whole tree had been read first.
pub fn decode(s: &str) -> Result<Trace, String> {
    let mut events = None;
    let root = document(s, MAX_DEPTH, |p| {
        if !p.at(b'{') {
            return p.value();
        }
        p.items(b'}', |p| match p.key()? {
            key if key == "events" && events.is_none() && p.at(b'[') => {
                let (mut log, mut bad) = (EventLog::new(), None);
                p.items(b']', |p| {
                    let start = p.pos;
                    let event = match p.event() {
                        Some(e) => Ok(e),
                        // Not in its canonical spelling: read it again
                        // as a tree, which names what is wrong.
                        None => {
                            p.pos = start;
                            event_from(&p.value()?)
                        }
                    };
                    match event {
                        Ok(e) if bad.is_none() => log.push(e),
                        Ok(_) => {}
                        Err(e) => {
                            bad.get_or_insert(e);
                        }
                    }
                    Ok(())
                })?;
                events = Some(bad.map_or(Ok(log), Err));
                Ok((key, Value::Arr(Vec::new())))
            }
            key => Ok((key, p.value()?)),
        })
        .map(Value::Obj)
    });
    let trace = root.and_then(|root| trace_from(&root, events.unwrap_or(Ok(EventLog::new()))));
    trace.map_err(|e| format!("trace {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_roundtrips() {
        let kinds = [
            EventKind::SectionEnter { section: 3 },
            EventKind::SectionExit { section: 3 },
            EventKind::LockAcquire {
                node: NodeKey::Root,
                mode: Mode::Ix,
            },
            EventKind::LockAcquire {
                node: NodeKey::Pts(7),
                mode: Mode::Six,
            },
            EventKind::LockRelease {
                node: NodeKey::Fine(1, FineAddr::Cell(99)),
                mode: Mode::X,
            },
            EventKind::LockRelease {
                node: NodeKey::Fine(1, FineAddr::Range(64)),
                mode: Mode::S,
            },
            EventKind::PlanComplete,
            EventKind::Read { addr: 12 },
            EventKind::Write { addr: 13 },
            EventKind::Alloc { base: 100, len: 8 },
            EventKind::StmCommit {
                reads: 4,
                writes: 2,
            },
            EventKind::StmAbort,
            EventKind::StmFallback,
            EventKind::Fault {
                class: FaultClass::WakeupDelay,
            },
            EventKind::Quarantine {
                section: 5,
                healed: false,
                probation: 4,
            },
            EventKind::Quarantine {
                section: 5,
                healed: true,
                probation: 8,
            },
            EventKind::WakeDecision {
                node: NodeKey::Pts(2),
                mode: Mode::S,
                depth: 4,
                woken: 3,
            },
            EventKind::Reinfer {
                section: 5,
                candidate: 1,
                accepted: true,
            },
            EventKind::Reinfer {
                section: 5,
                candidate: 1,
                accepted: false,
            },
        ];
        let t = Trace {
            meta: vec![
                ("mode".into(), "Stm".into()),
                (
                    "source".into(),
                    "fn main() {\n  \"quoted\\path\"\t\u{1}\n}".into(),
                ),
            ],
            allocs: vec![AllocRecord {
                base: 1,
                len: 2,
                class: 3,
            }],
            events: kinds
                .iter()
                .enumerate()
                .map(|(i, &kind)| Event {
                    epoch: i as u64,
                    tid: (i % 3) as u32,
                    clock: 10 * i as u64,
                    kind,
                })
                .collect(),
            dropped: 0,
        };
        let json = t.to_json();
        let back = decode(&json).expect("decode");
        assert_eq!(t, back);
        assert_eq!(json, back.to_json(), "canonical encoding is stable");
        // Every canonical event takes the typed reader, not the tree.
        for e in &t.events {
            let one = Trace {
                events: vec![e].into(),
                ..Trace::default()
            }
            .to_json();
            let src = &one[one.find("[[").expect("an event") + 1..one.len() - 2];
            let mut p = parser(src);
            assert_eq!(p.event(), Some(e), "{src}");
            assert_eq!(p.pos, src.len(), "{src}");
        }
    }

    fn parser(src: &str) -> Parser<'_> {
        Parser {
            src,
            pos: 0,
            depth: 0,
            max_depth: MAX_DEPTH,
        }
    }

    #[test]
    fn the_typed_reader_leaves_every_other_spelling_to_the_tree() {
        for src in [
            "[0, 0,0,[\"pc\"]]",
            "[0,0,0,[\"pc\"] ]",
            "[0,0,0,[\"p\\u0063\"]]",
            "[1.5,0,0,[\"pc\"]]",
            "[0,4294967296,0,[\"pc\"]]",
            "[18446744073709551616,0,0,[\"pc\"]]",
            "[0,0,0,[\"enter\",4294967296]]",
            "[0,0,0,[\"??\"]]",
            "[0,0,0,[\"pc\",1]]",
            "[0,0,0,[\"rd\"]]",
            "[0,0,0,[\"qr\",1,2,4]]",
            "[0,0,0,[\"acq\",[\"leaf\"],\"X\"]]",
            "[0,0,0,[\"acq\",[\"cell\",1],\"X\"]]",
            "[0,0,0,[\"acq\",[\"root\"],\"XX\"]]",
            "[0,0,0,[\"flt\",\"gremlin\"]]",
            "[0,0,0,[\"wk\",[\"root\"],\"S\",1,2,3]]",
            "[0,0,0]",
        ] {
            assert_eq!(parser(src).event(), None, "{src}");
        }
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",
            "[]",
            "{\"format\":\"nope\"}",
            "{\"format\":\"ali-trace-v1\",\"dropped\":0,\"meta\":[],\"allocs\":[],\"events\":[[0,0,0,[\"??\"]]]}",
            "{\"format\":\"ali-trace-v1\",\"dropped\":0,\"meta\":[],\"allocs\":[],\"events\":[[0,0,0,[\"qr\",1,2,4]]]}",
            "{\"format\":\"ali-trace-v1\",\"dropped\":0,\"meta\":[],\"allocs\":[],\"events\":[[0,0,0,[\"ri\",1,2,2]]]}",
            "{\"format\":\"ali-trace-v1\",\"dropped\":0,\"meta\":[],\"allocs\":[],\"events\":[]} trailing",
        ] {
            assert!(decode(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn deep_nesting_is_refused_not_recursed_into() {
        // One parser frame per bracket used to overflow the stack (and
        // abort the process) long before 200 000 of them.
        for open in ["[", "{\"k\":"] {
            let err = decode(&open.repeat(200_000)).unwrap_err();
            assert!(err.contains("nesting too deep at byte"), "{err}");
        }
        // The deepest value the format itself uses still decodes.
        let deepest = "{\"format\":\"ali-trace-v1\",\"dropped\":0,\"meta\":[],\"allocs\":[],\
            \"events\":[[0,0,0,[\"acq\",[\"cell\",1,2],\"X\"]]]}";
        assert_eq!(decode(deepest).expect("decode").events.len(), 1);
    }

    #[test]
    fn numbers_wider_than_their_field_are_refused_not_truncated() {
        let doc = |allocs: &str, events: &str| {
            format!(
                "{{\"format\":\"ali-trace-v1\",\"dropped\":0,\"meta\":[],\
                 \"allocs\":[{allocs}],\"events\":[{events}]}}"
            )
        };
        // 2^32 + 1 used to decode as 1 — some other thread or section.
        const WIDE: u64 = (1 << 32) + 1;
        let mut hostile = vec![doc(&format!("[1,2,{WIDE}]"), "")];
        for kind in [
            format!("[\"enter\",{WIDE}]"),
            format!("[\"exit\",{WIDE}]"),
            format!("[\"acq\",[\"pts\",{WIDE}],\"X\"]"),
            format!("[\"rel\",[\"cell\",{WIDE},3],\"X\"]"),
            format!("[\"rel\",[\"range\",{WIDE},3],\"X\"]"),
            format!("[\"qr\",{WIDE},0,4]"),
            format!("[\"qr\",1,0,{WIDE}]"),
            format!("[\"wk\",[\"root\"],\"S\",{WIDE},1]"),
            format!("[\"wk\",[\"root\"],\"S\",1,{WIDE}]"),
            format!("[\"ri\",{WIDE},1,1]"),
            format!("[\"ri\",1,{WIDE},1]"),
        ] {
            hostile.push(doc("", &format!("[0,0,7,{kind}]")));
        }
        hostile.push(doc("", &format!("[0,{WIDE},7,[\"pc\"]]")));
        for json in hostile {
            let err = decode(&json).unwrap_err();
            assert!(err.contains("does not fit in 32 bits"), "{json}: {err}");
        }
        // The 64-bit fields keep their width.
        let t = decode(&doc("", &format!("[{WIDE},0,{WIDE},[\"rd\",{WIDE}]]"))).expect("decode");
        let e = t.events.iter().next().expect("one event");
        assert_eq!(e.kind, EventKind::Read { addr: WIDE });
    }

    fn meta_only(meta: Vec<(String, String)>) -> Trace {
        Trace {
            meta,
            allocs: Vec::new(),
            events: EventLog::new(),
            dropped: 0,
        }
    }

    #[test]
    fn multibyte_characters_roundtrip_next_to_every_escape() {
        // 2-, 3- and 4-byte characters, each flanking each escape the
        // encoder emits, in a key and in a value.
        let wide = ["é", "€", "𝄞"];
        let escapes = ["\"", "\\", "\n", "\r", "\t", "\u{1}", "/"];
        let mut text = String::new();
        for w in wide {
            for e in escapes {
                text.push_str(w);
                text.push_str(e);
                text.push_str(w);
            }
        }
        let t = meta_only(vec![
            (format!("key {text}"), "plain".into()),
            ("source".into(), text.clone()),
            ("ends wide €".into(), "𝄞".into()),
        ]);
        let json = t.to_json();
        let back = decode(&json).expect("decode");
        assert_eq!(t, back);
        assert_eq!(json, back.to_json(), "canonical encoding is stable");
        // Escapes the encoder never emits still decode beside them.
        let foreign = decode(&json.replace("plain", "é\\/€\\u00e9𝄞")).expect("decode");
        assert_eq!(foreign.meta[0].1, "é/€é𝄞");
    }

    #[test]
    fn an_unterminated_string_ending_in_a_multibyte_character_is_typed() {
        for cut in ["{\"format\":\"é", "{\"format\":\"€", "{\"format\":\"a𝄞"] {
            let err = decode(cut).unwrap_err();
            assert!(err.contains("unterminated string"), "{cut}: {err}");
        }
        // A `\u` escape cut short by a wide character is typed too.
        let err = decode("{\"format\":\"\\u00€\"}").unwrap_err();
        assert!(err.contains("\\u escape"), "{err}");
    }

    #[test]
    fn a_mebibyte_string_decodes_in_linear_time() {
        // Quadratic string decoding (re-validating the remaining input
        // per character) took hours here; the bound is generous for a
        // loaded debug build and hopeless for a quadratic one.
        let source: String = "fn main() { return \"é€𝄞\"; }\n"
            .chars()
            .cycle()
            .take(1 << 20)
            .collect();
        let t = meta_only(vec![("source".into(), source)]);
        let json = t.to_json();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(decode(&json));
        });
        let back = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("decode of a 1 MiB string finishes within 5 s")
            .expect("decode");
        assert_eq!(t, back);
    }

    #[test]
    fn streamed_events_report_their_errors_where_the_whole_tree_would() {
        let doc = |format: &str, events: &str, tail: &str| {
            format!(
                "{{\"format\":\"{format}\",\"dropped\":0,\"meta\":[],\
                 \"allocs\":[],\"events\":{events}{tail}}}"
            )
        };
        let bad = "[[0,0,0,[\"??\"]]]";
        for (json, why) in [
            // A syntax error after a bad event comes first …
            (doc(FORMAT, bad, ",\"x\":"), "expected a value"),
            (doc(FORMAT, bad, "} trailing"), "trailing content"),
            // … then the members before `events`, checked in order …
            (doc("nope", bad, ""), "unsupported format `nope`"),
            (
                doc(FORMAT, bad, "").replace("\"dropped\":0", "\"dropped\":\"0\""),
                "dropped must be an integer",
            ),
            (
                doc(FORMAT, bad, "").replace("[],\"events", "[[1,2]],\"events"),
                "alloc records are",
            ),
            // … then the first bad event.
            (
                doc(FORMAT, "[[0,0,0,[\"??\"]],[0,0,0,[\"!!\"]]]", ""),
                "unknown event kind `??`",
            ),
            // Only the first `events` member counts, as in the tree.
            (
                doc(FORMAT, "\"x\"", ",\"events\":[]"),
                "events must be an array",
            ),
            (
                doc(FORMAT, "[]", "").replace("\"events\":[]", "\"evts\":[]"),
                "missing `events`",
            ),
        ] {
            let err = decode(&json).unwrap_err();
            assert!(err.contains(why), "{json}: {err}");
        }
        let t = decode(&doc(
            FORMAT,
            "[[0,0,0,[\"pc\"]]]",
            &format!(",\"events\":{bad}"),
        ));
        assert_eq!(t.expect("the first `events` decodes").events.len(), 1);
    }

    #[test]
    fn numbers_outside_the_grammar_are_typed_errors() {
        let doc = |dropped: &str| {
            format!(
                "{{\"format\":\"ali-trace-v1\",\"dropped\":{dropped},\"meta\":[],\
                 \"allocs\":[],\"events\":[]}}"
            )
        };
        // A decimal where the trace wants an integer.
        let err = decode(&doc("1.5")).unwrap_err();
        assert!(err.contains("dropped must be an integer"), "{err}");
        // One past u64::MAX is refused, not wrapped; u64::MAX is exact.
        let err = decode(&doc("18446744073709551616")).unwrap_err();
        assert!(err.contains("wider than 64 bits"), "{err}");
        assert_eq!(
            decode(&doc("18446744073709551615")).unwrap().dropped,
            u64::MAX
        );
        for (bad, why) in [
            ("1.", "expected a digit after `.`"),
            (".5", "expected a value"),
            ("-1", "expected a value"),
            ("+1", "expected a value"),
            ("1e5", "expected `,` or `}`"),
            ("true", "expected a value"),
            ("null", "expected a value"),
        ] {
            let err = decode(&doc(bad)).unwrap_err();
            assert!(err.contains(why), "{bad}: {err}");
        }
        assert_eq!(
            parse("[0.966, 2.0]", 1),
            Ok(Value::Arr(vec![Value::Dec(0.966), Value::Dec(2.0)]))
        );
        assert_eq!(parse("2.0", 0).unwrap().as_f64("x"), Ok(2.0));
        assert_eq!(parse("7", 0).unwrap().as_f64("x"), Ok(7.0));
    }

    /// What the writer can say that the reader reads: no booleans or
    /// nulls, decimals at three places.
    fn write_value(w: &mut Writer, v: &Value) {
        match v {
            Value::Int(n) => {
                w.u64(*n);
            }
            Value::Dec(x) => {
                w.fixed(*x, 3);
            }
            Value::Str(s) => {
                w.str(s);
            }
            Value::Arr(items) => {
                w.array();
                for item in items {
                    write_value(w, item);
                }
                w.end_array();
            }
            Value::Obj(members) => {
                w.object();
                for (k, v) in members {
                    w.key(k);
                    write_value(w, v);
                }
                w.end_object();
            }
        }
    }

    fn text() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::prelude::*;
        let chars = vec![
            'a', ' ', '/', 'é', '€', '𝄞', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}',
        ];
        prop::collection::vec(prop::sample::select(chars), 0..6)
            .prop_map(|cs| cs.into_iter().collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn written_values_read_back_and_rewrite_to_the_same_bytes(
            v in {
                use proptest::prelude::*;
                prop_oneof![
                    any::<u64>().prop_map(Value::Int),
                    (0u64..1 << 40).prop_map(|n| Value::Dec(n as f64 / 1000.0)),
                    text().prop_map(Value::Str),
                ]
                .prop_recursive(4, 32, 4, |inner| {
                    prop_oneof![
                        prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Arr),
                        prop::collection::vec((text(), inner), 0..4).prop_map(Value::Obj),
                    ]
                })
            }
        ) {
            let mut json = String::new();
            write_value(&mut Writer::new(&mut json), &v);
            let back = parse(&json, 5).expect("the writer's output parses");
            proptest::prop_assert_eq!(&back, &v);
            let mut again = String::new();
            write_value(&mut Writer::new(&mut again), &back);
            proptest::prop_assert_eq!(again, json);
        }
    }
}
