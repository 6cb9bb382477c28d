//! JSON export/import of traces.
//!
//! The build environment has no registry access (see
//! `shims/README.md`), so instead of serde this module hand-rolls a
//! canonical encoder and a small recursive-descent parser for the
//! subset of JSON the trace format uses: objects, arrays, strings
//! (with escapes — trace metadata embeds program source), and
//! unsigned integers.
//!
//! The encoding is canonical — no optional whitespace, fixed key
//! order — so byte equality of two exports is exactly trace equality,
//! which the determinism tests rely on.
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

use crate::event::{Event, EventKind, FaultClass};
use crate::{AllocRecord, Trace};
use mglock::{FineAddr, Mode, NodeKey};
use std::fmt::Write as _;

const FORMAT: &str = "ali-trace-v1";

// ----------------------------------------------------------------------
// Encoding

/// Appends `s` as a JSON string literal — the one escaper behind
/// every canonical encoding in the workspace (traces here, metric
/// snapshots and flamegraphs in `obs`).
pub fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A lock mode as its JSON string (the tags need no escaping).
fn push_mode(out: &mut String, m: Mode) {
    out.push('"');
    out.push_str(m.tag());
    out.push('"');
}

fn push_node(out: &mut String, n: NodeKey) {
    out.push_str("[\"");
    out.push_str(n.class());
    out.push('"');
    match n {
        NodeKey::Root => {}
        NodeKey::Pts(p) => {
            let _ = write!(out, ",{p}");
        }
        NodeKey::Fine(p, FineAddr::Cell(a) | FineAddr::Range(a)) => {
            let _ = write!(out, ",{p},{a}");
        }
    }
    out.push(']');
}

fn push_kind(out: &mut String, k: EventKind) {
    match k {
        EventKind::SectionEnter { section } => {
            let _ = write!(out, "[\"enter\",{section}]");
        }
        EventKind::SectionExit { section } => {
            let _ = write!(out, "[\"exit\",{section}]");
        }
        EventKind::LockAcquire { node, mode } => {
            out.push_str("[\"acq\",");
            push_node(out, node);
            out.push(',');
            push_mode(out, mode);
            out.push(']');
        }
        EventKind::LockRelease { node, mode } => {
            out.push_str("[\"rel\",");
            push_node(out, node);
            out.push(',');
            push_mode(out, mode);
            out.push(']');
        }
        EventKind::PlanComplete => out.push_str("[\"pc\"]"),
        EventKind::Read { addr } => {
            let _ = write!(out, "[\"rd\",{addr}]");
        }
        EventKind::Write { addr } => {
            let _ = write!(out, "[\"wr\",{addr}]");
        }
        EventKind::Alloc { base, len } => {
            let _ = write!(out, "[\"al\",{base},{len}]");
        }
        EventKind::StmCommit { reads, writes } => {
            let _ = write!(out, "[\"cmt\",{reads},{writes}]");
        }
        EventKind::StmAbort => out.push_str("[\"ab\"]"),
        EventKind::StmFallback => out.push_str("[\"fb\"]"),
        EventKind::Fault { class } => {
            out.push_str("[\"flt\",");
            push_escaped(out, class.tag());
            out.push(']');
        }
        EventKind::Quarantine {
            section,
            healed,
            probation,
        } => {
            // The parser's number grammar has no booleans; `healed`
            // encodes as 0/1.
            let _ = write!(out, "[\"qr\",{section},{},{probation}]", u64::from(healed));
        }
        EventKind::WakeDecision {
            node,
            mode,
            depth,
            woken,
        } => {
            out.push_str("[\"wk\",");
            push_node(out, node);
            out.push(',');
            push_mode(out, mode);
            let _ = write!(out, ",{depth},{woken}]");
        }
        EventKind::Reinfer {
            section,
            candidate,
            accepted,
        } => {
            // `accepted` encodes as 0/1, like the qr healed flag.
            let _ = write!(
                out,
                "[\"ri\",{section},{candidate},{}]",
                u64::from(accepted)
            );
        }
    }
}

/// Canonical JSON encoding of a trace.
pub fn encode(t: &Trace) -> String {
    let mut out = String::with_capacity(64 + t.events.len() * 24);
    out.push_str("{\"format\":");
    push_escaped(&mut out, FORMAT);
    let _ = write!(out, ",\"dropped\":{},\"meta\":[", t.dropped);
    for (i, (k, v)) in t.meta.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        push_escaped(&mut out, k);
        out.push(',');
        push_escaped(&mut out, v);
        out.push(']');
    }
    out.push_str("],\"allocs\":[");
    for (i, a) in t.allocs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{},{}]", a.base, a.len, a.class);
    }
    out.push_str("],\"events\":[");
    for (i, e) in t.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{},{},", e.epoch, e.tid, e.clock);
        push_kind(&mut out, e.kind);
        out.push(']');
    }
    out.push_str("]}");
    out
}

// ----------------------------------------------------------------------
// Decoding

/// A parsed JSON value (the subset the trace format uses: no floats,
/// no booleans, no null).
enum Value {
    Num(u64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

/// A cursor over the input. `pos` is always a character boundary of
/// `src`: every step consumes whole ASCII bytes or one whole character.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

/// The deepest nesting the format uses: object → `events` array →
/// event → kind → node. [`Parser::value`] recurses once per level, so
/// the bound is also what keeps hostile input off the call stack.
const MAX_DEPTH: usize = 5;

type PResult<T> = Result<T, String>;

impl<'a> Parser<'a> {
    fn err<T>(&self, what: &str) -> PResult<T> {
        Err(format!("trace json: {what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
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

    fn value(&mut self) -> PResult<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => self.err("nesting too deep"),
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b) if b.is_ascii_digit() => Ok(Value::Num(self.number()?)),
            _ => self.err("expected a value"),
        }
    }

    fn number(&mut self) -> PResult<u64> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected a number");
        }
        self.src[start..self.pos]
            .parse()
            .map_err(|_| format!("trace json: bad number at byte {start}"))
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
                            if self.pos + 4 > self.src.len() {
                                return self.err("truncated \\u escape");
                            }
                            let hex = self
                                .src
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "trace json: bad \\u escape".to_owned())?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| "trace json: bad \\u escape".to_owned())?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| "trace json: bad codepoint".to_owned())?,
                            );
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

    fn array(&mut self) -> PResult<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return self.err("expected `,` or `]`"),
            }
        }
    }

    fn object(&mut self) -> PResult<Value> {
        self.expect(b'{')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(items));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            items.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(items));
                }
                _ => return self.err("expected `,` or `}`"),
            }
        }
    }
}

fn as_num(v: &Value, what: &str) -> PResult<u64> {
    match v {
        Value::Num(n) => Ok(*n),
        _ => Err(format!("trace json: {what} must be a number")),
    }
}

/// A field the trace model stores in 32 bits: a wider number is
/// refused, not truncated onto some other thread or section.
fn as_u32(v: &Value, what: &str) -> PResult<u32> {
    u32::try_from(as_num(v, what)?)
        .map_err(|_| format!("trace json: {what} does not fit in 32 bits"))
}

fn as_mode(v: &Value) -> PResult<Mode> {
    as_str(v, "mode")?
        .parse()
        .map_err(|e| format!("trace json: {e}"))
}

fn as_str<'v>(v: &'v Value, what: &str) -> PResult<&'v str> {
    match v {
        Value::Str(s) => Ok(s),
        _ => Err(format!("trace json: {what} must be a string")),
    }
}

fn as_arr<'v>(v: &'v Value, what: &str) -> PResult<&'v [Value]> {
    match v {
        Value::Arr(items) => Ok(items),
        _ => Err(format!("trace json: {what} must be an array")),
    }
}

fn node_from(v: &Value) -> PResult<NodeKey> {
    let items = as_arr(v, "node")?;
    let tag = as_str(items.first().ok_or("trace json: empty node")?, "node tag")?;
    // The class names are `mglock`'s: build the nodes of this shape and
    // keep the one whose class is the tag.
    let shaped = match items.len() {
        1 => [Some(NodeKey::Root), None],
        2 => [Some(NodeKey::Pts(as_u32(&items[1], "pts")?)), None],
        3 => {
            let (pts, at) = (as_u32(&items[1], "pts")?, as_num(&items[2], "addr")?);
            [FineAddr::Cell(at), FineAddr::Range(at)].map(|a| Some(NodeKey::Fine(pts, a)))
        }
        _ => [None, None],
    };
    shaped
        .into_iter()
        .flatten()
        .find(|n| n.class() == tag)
        .ok_or_else(|| format!("trace json: unknown node `{tag}`"))
}

fn kind_from(v: &Value) -> PResult<EventKind> {
    let items = as_arr(v, "event kind")?;
    let tag = as_str(items.first().ok_or("trace json: empty kind")?, "kind tag")?;
    let num = |i: usize| as_num(&items[i], tag);
    let num32 = |i: usize| as_u32(&items[i], tag);
    Ok(match (tag, items.len()) {
        ("enter", 2) => EventKind::SectionEnter { section: num32(1)? },
        ("exit", 2) => EventKind::SectionExit { section: num32(1)? },
        ("acq", 3) | ("rel", 3) => {
            let node = node_from(&items[1])?;
            let mode = as_mode(&items[2])?;
            if tag == "acq" {
                EventKind::LockAcquire { node, mode }
            } else {
                EventKind::LockRelease { node, mode }
            }
        }
        ("pc", 1) => EventKind::PlanComplete,
        ("rd", 2) => EventKind::Read { addr: num(1)? },
        ("wr", 2) => EventKind::Write { addr: num(1)? },
        ("al", 3) => EventKind::Alloc {
            base: num(1)?,
            len: num(2)?,
        },
        ("cmt", 3) => EventKind::StmCommit {
            reads: num(1)?,
            writes: num(2)?,
        },
        ("ab", 1) => EventKind::StmAbort,
        ("fb", 1) => EventKind::StmFallback,
        ("flt", 2) => EventKind::Fault {
            class: FaultClass::from_tag(as_str(&items[1], "fault class")?)
                .ok_or_else(|| "trace json: unknown fault class".to_owned())?,
        },
        ("qr", 4) => EventKind::Quarantine {
            section: num32(1)?,
            healed: match num(2)? {
                0 => false,
                1 => true,
                _ => return Err("trace json: qr healed flag must be 0 or 1".into()),
            },
            probation: num32(3)?,
        },
        ("wk", 5) => EventKind::WakeDecision {
            node: node_from(&items[1])?,
            mode: as_mode(&items[2])?,
            depth: num32(3)?,
            woken: num32(4)?,
        },
        ("ri", 4) => EventKind::Reinfer {
            section: num32(1)?,
            candidate: num32(2)?,
            accepted: match num(3)? {
                0 => false,
                1 => true,
                _ => return Err("trace json: ri accepted flag must be 0 or 1".into()),
            },
        },
        _ => return Err(format!("trace json: unknown event kind `{tag}`")),
    })
}

/// Parses a trace from its canonical JSON encoding.
pub fn decode(s: &str) -> Result<Trace, String> {
    let mut p = Parser {
        src: s,
        pos: 0,
        depth: 0,
    };
    let root = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err("trace json: trailing content".into());
    }
    let Value::Obj(fields) = root else {
        return Err("trace json: top level must be an object".into());
    };
    let field = |name: &str| {
        fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("trace json: missing `{name}`"))
    };
    let format = as_str(field("format")?, "format")?;
    if format != FORMAT {
        return Err(format!("trace json: unsupported format `{format}`"));
    }
    let mut t = Trace {
        dropped: as_num(field("dropped")?, "dropped")?,
        ..Trace::default()
    };
    for pair in as_arr(field("meta")?, "meta")? {
        let kv = as_arr(pair, "meta entry")?;
        if kv.len() != 2 {
            return Err("trace json: meta entries are [key,value]".into());
        }
        t.meta.push((
            as_str(&kv[0], "meta key")?.to_owned(),
            as_str(&kv[1], "meta value")?.to_owned(),
        ));
    }
    for rec in as_arr(field("allocs")?, "allocs")? {
        let a = as_arr(rec, "alloc record")?;
        if a.len() != 3 {
            return Err("trace json: alloc records are [base,len,class]".into());
        }
        t.allocs.push(AllocRecord {
            base: as_num(&a[0], "base")?,
            len: as_num(&a[1], "len")?,
            class: as_u32(&a[2], "class")?,
        });
    }
    for rec in as_arr(field("events")?, "events")? {
        let e = as_arr(rec, "event")?;
        if e.len() != 4 {
            return Err("trace json: events are [epoch,tid,clock,kind]".into());
        }
        t.events.push(Event {
            epoch: as_num(&e[0], "epoch")?,
            tid: as_u32(&e[1], "tid")?,
            clock: as_num(&e[2], "clock")?,
            kind: kind_from(&e[3])?,
        });
    }
    Ok(t)
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
        let json = encode(&t);
        let back = decode(&json).expect("decode");
        assert_eq!(t, back);
        assert_eq!(json, encode(&back), "canonical encoding is stable");
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
        assert_eq!(t.events[0].kind, EventKind::Read { addr: WIDE });
    }

    fn meta_only(meta: Vec<(String, String)>) -> Trace {
        Trace {
            meta,
            allocs: Vec::new(),
            events: Vec::new(),
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
        let json = encode(&t);
        let back = decode(&json).expect("decode");
        assert_eq!(t, back);
        assert_eq!(json, encode(&back), "canonical encoding is stable");
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
        let json = encode(&t);
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
}
