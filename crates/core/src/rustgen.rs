//! Native Rust code generation: compiles a verified [`PregelProgram`] into
//! the source of a monomorphized execution leg (`gm_interp::Leg`).
//!
//! Vertex kernels and master code come from the same lowering `gm-interp`
//! executes ([`crate::kernel`]): names are already resolved to property,
//! edge, payload, local and global slots, and the kernel flags
//! (snapshotting, edge-dependent sends, the pull send site) are already
//! computed, so this backend only maps slots to native field names. Where
//! `gm-interp` dispatches on tagged [`crate::value::Value`]s per expression
//! node, this backend emits a Rust module with:
//!
//! * a `VertexValue` struct holding one **native field per node property**
//!   (`i64`/`f64`/`bool`/`u32`), plus the in-neighbor array;
//! * a `Msg` enum with one **monomorphized variant per message tag** and
//!   native payload fields — no `Arc<[Value]>`, no tag byte at runtime;
//!   the in-neighbor preamble's message is one more variant, and
//!   `Leg::in_nbr` reads the tag whose handler stores in-neighbors;
//! * a typed `Globals` struct, one native field per master global;
//! * vertex kernels and per-state master/post/transition code with all
//!   expressions **inlined at their native types**, aggregator folds
//!   included;
//! * `pull_message` for the compiler's `Recomputed` states, so
//!   `Schedule::Pull` and `Schedule::Auto` keep working natively;
//! * a `SIGNATURE` table — names, scalar types, vertex states, kernel
//!   global reads, pull verdicts — equal to the one `gm-interp` derives
//!   from the same PIR, and a `run` entry that hands it and the module's
//!   leg to the program shell `gm_interp::run_compiled` runs too.
//!
//! Everything that does not depend on how code runs — the master driver
//! loop, argument binding, the snapshot's master section, the outcome and
//! trace — is shared, not printed: this backend prints only data layout
//! and code.
//!
//! **Bit-exactness contract.** The generated program must be bit-for-bit
//! identical to the interpreter: same values, same per-superstep structural
//! metrics (active vertices, messages, bytes), same checkpoints-and-resume
//! behavior, same `G.PickRandom()` stream. Every arithmetic choice below
//! mirrors `gm_core::value::{apply_bin, apply_un, apply_reduce}` and
//! `Value::coerce` exactly: `i64` arithmetic wraps, mixed numeric widens to
//! `f64`, `f64` comparisons are IEEE (false on NaN), `f64 as i64` saturates,
//! min/max on node ids are `u32` min/max. Where the interpreter's dynamic
//! typing would *panic* (e.g. `%` on floats), this backend instead rejects
//! the program at generation time with a [`RustgenError`].
//!
//! The output is deterministic: identical programs emit identical source,
//! which lets golden-file tests diff against checked-in modules and lets
//! `gmc run --backend native` match user-compiled programs against the
//! built-in registry by source equality.

use crate::ast::{AssignOp, BinOp, UnOp};
use crate::kernel::{self, CAction, CExpr, CInstr, CKernel, CMInstr, CPull, Lowered};
use crate::pir::{PregelProgram, Transition};
use crate::types::Ty;
use crate::value::{Value, NIL_NODE};
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

/// A program this backend cannot compile faithfully (the interpreter would
/// panic at runtime on the same construct, or the construct has no native
/// monomorphization).
#[derive(Debug, Clone)]
pub struct RustgenError {
    /// Human-readable reason.
    pub message: String,
}

impl fmt::Display for RustgenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rustgen: {}", self.message)
    }
}

impl Error for RustgenError {}

impl From<String> for RustgenError {
    fn from(message: String) -> RustgenError {
        RustgenError { message }
    }
}

type R<T> = Result<T, RustgenError>;

fn err<T>(message: impl Into<String>) -> R<T> {
    Err(RustgenError {
        message: message.into(),
    })
}

/// Native runtime representation of a Green-Marl value. `Int`/`Long` share
/// `i64` and `Float`/`Double` share `f64`, exactly like [`crate::value::Value`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Repr {
    I64,
    F64,
    Bool,
    Node,
    Edge,
}

impl Repr {
    fn of_ty(ty: &Ty) -> R<Repr> {
        Ok(match ty {
            Ty::Int | Ty::Long => Repr::I64,
            Ty::Float | Ty::Double => Repr::F64,
            Ty::Bool => Repr::Bool,
            Ty::Node => Repr::Node,
            Ty::Edge => Repr::Edge,
            other => return err(format!("type {other} has no native representation")),
        })
    }

    fn rust(self) -> &'static str {
        match self {
            Repr::I64 => "i64",
            Repr::F64 => "f64",
            Repr::Bool => "bool",
            Repr::Node | Repr::Edge => "u32",
        }
    }

    /// The native rendering of [`crate::value::Value::default_for`].
    fn default_expr(self) -> &'static str {
        match self {
            Repr::I64 => "0i64",
            Repr::F64 => "0.0f64",
            Repr::Bool => "false",
            Repr::Node => "u32::MAX",
            Repr::Edge => "0u32",
        }
    }

    fn is_numeric(self) -> bool {
        matches!(self, Repr::I64 | Repr::F64)
    }

    fn name(self) -> &'static str {
        match self {
            Repr::I64 => "Int",
            Repr::F64 => "Double",
            Repr::Bool => "Bool",
            Repr::Node => "Node",
            Repr::Edge => "Edge",
        }
    }
}

/// Renders a native value wrapped back into a tagged [`Value`].
fn value_wrap(expr: &str, repr: Repr) -> String {
    format!("Value::{}({expr})", repr.name())
}

/// The [`Value`] accessor that unwraps a value of `repr`.
fn value_unwrap(repr: Repr) -> &'static str {
    match repr {
        Repr::I64 => "as_int",
        Repr::F64 => "as_f64",
        Repr::Bool => "as_bool",
        Repr::Node => "as_node",
        Repr::Edge => "as_edge",
    }
}

/// A rendered expression together with its native representation. The
/// rendering is always safe to embed as an operand (atoms stay bare,
/// everything composite is parenthesized).
#[derive(Clone, Debug)]
struct TE {
    s: String,
    repr: Repr,
}

impl TE {
    fn new(s: impl Into<String>, repr: Repr) -> TE {
        TE { s: s.into(), repr }
    }
}

fn fmt_i64(v: i64) -> String {
    if v == i64::MIN {
        "i64::MIN".to_owned()
    } else if v == i64::MAX {
        "i64::MAX".to_owned()
    } else if v < 0 {
        format!("({v}i64)")
    } else {
        format!("{v}i64")
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "f64::NAN".to_owned()
    } else if v == f64::INFINITY {
        "f64::INFINITY".to_owned()
    } else if v == f64::NEG_INFINITY {
        "f64::NEG_INFINITY".to_owned()
    } else if v < 0.0 || (v == 0.0 && v.is_sign_negative()) {
        // `{:?}` round-trips f64 exactly.
        format!("({v:?}f64)")
    } else {
        format!("{v:?}f64")
    }
}

/// Renders a constant (literal, resolved `INF`/`NIL`) at its native type.
fn const_te(v: Value) -> TE {
    match v {
        Value::Int(x) => TE::new(fmt_i64(x), Repr::I64),
        Value::Double(x) => TE::new(fmt_f64(x), Repr::F64),
        Value::Bool(x) => TE::new(if x { "true" } else { "false" }, Repr::Bool),
        Value::Node(NIL_NODE) => TE::new("u32::MAX", Repr::Node),
        Value::Node(x) => TE::new(format!("{x}u32"), Repr::Node),
        Value::Edge(x) => TE::new(format!("{x}u32"), Repr::Edge),
    }
}

const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "static", "struct", "super", "trait", "true", "type", "unsafe", "use",
    "where", "while", "yield",
];

/// Deterministically turns an arbitrary Green-Marl identifier into a unique
/// valid Rust identifier within one namespace (`used`).
fn sanitize(name: &str, used: &mut HashSet<String>) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    if s.is_empty() || s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        s.insert(0, 'x');
    }
    if KEYWORDS.contains(&s.as_str()) {
        s.push('_');
    }
    let mut candidate = s.clone();
    let mut n = 2usize;
    while !used.insert(candidate.clone()) {
        candidate = format!("{s}_{n}");
        n += 1;
    }
    candidate
}

/// CamelCase type name from a procedure name.
fn camel(name: &str) -> String {
    let mut out = String::new();
    let mut upper = true;
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            if upper {
                out.extend(c.to_uppercase());
                upper = false;
            } else {
                out.push(c);
            }
        } else {
            upper = true;
        }
    }
    if out.is_empty() || out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, 'P');
    }
    out
}

/// An indentation-tracking output buffer.
struct Buf {
    s: String,
    ind: usize,
}

impl Buf {
    fn new(ind: usize) -> Buf {
        Buf {
            s: String::new(),
            ind,
        }
    }

    fn line(&mut self, text: &str) {
        if text.is_empty() {
            self.s.push('\n');
            return;
        }
        for _ in 0..self.ind {
            self.s.push_str("    ");
        }
        self.s.push_str(text);
        self.s.push('\n');
    }

    fn open(&mut self, text: &str) {
        self.line(text);
        self.ind += 1;
    }

    fn close(&mut self, text: &str) {
        self.ind -= 1;
        self.line(text);
    }

    fn push_buf(&mut self, other: &Buf) {
        self.s.push_str(&other.s);
    }
}

/// The generator: name tables plus state collected while emitting kernels
/// (broadcast-global order, aggregate representations, helper usage).
struct Gen<'a> {
    p: &'a PregelProgram,
    struct_name: String,
    /// Per node property (aligned with `p.node_props`): field name, repr.
    prop_fields: Vec<(String, Repr)>,
    /// Per edge property (aligned with `p.edge_props`): field name, repr.
    edge_fields: Vec<(String, Repr)>,
    /// Per global (aligned with `p.globals`): field name (sans `g_`), repr.
    global_fields: Vec<(String, Repr)>,
    /// Per message tag: variant name, fields (sanitized name, repr).
    msg_variants: Vec<(String, Vec<(String, Repr)>)>,
    ret_repr: Option<Repr>,
    /// Aggregate key → the repr every vertex-side `ReduceGlobal` pushes.
    agg_repr: HashMap<String, Repr>,
    temp: usize,
}

impl<'a> Gen<'a> {
    fn new(p: &'a PregelProgram) -> R<Gen<'a>> {
        // Native field names and reprs of one column list, `what` naming
        // each entry in errors.
        let fields = |cols: &[(String, Ty)], used: &mut HashSet<String>, what: &str| {
            (cols.iter())
                .map(|(name, ty)| match Repr::of_ty(ty) {
                    Ok(repr) => Ok((sanitize(name, used), repr)),
                    Err(e) => err(format!("{what} `{name}`: {}", e.message)),
                })
                .collect::<R<Vec<_>>>()
        };
        let mut prop_used = HashSet::from(["in_nbrs".to_owned()]);
        let prop_fields = fields(&p.node_props, &mut prop_used, "node property")?;
        let edge_fields = fields(&p.edge_props, &mut HashSet::new(), "edge property")?;
        let global_fields = fields(&p.globals, &mut HashSet::new(), "global")?;
        let mut msg_variants = Vec::new();
        for m in &p.messages {
            let what = format!("message {} field", m.tag);
            let fields = fields(&m.fields, &mut HashSet::new(), &what)?;
            msg_variants.push((format!("M{}", m.tag), fields));
        }

        let ret_repr = match &p.ret {
            Some(ty) => Some(Repr::of_ty(ty)?),
            None => None,
        };

        Ok(Gen {
            struct_name: camel(&p.name),
            prop_fields,
            edge_fields,
            global_fields,
            msg_variants,
            ret_repr,
            agg_repr: HashMap::new(),
            temp: 0,
            p,
        })
    }

    fn fresh_temp(&mut self) -> String {
        self.temp += 1;
        format!("v{}", self.temp)
    }

    fn global_te(&self, idx: usize) -> TE {
        let (f, repr) = &self.global_fields[idx];
        TE::new(format!("g.{f}"), *repr)
    }

    // ---- shared operation rendering (mirrors gm_core::value) ----

    /// Renders `Value::coerce(te, ty)` when the target repr comes from a
    /// declared type. Int↔float convert; everything else must match.
    fn coerce_te(&self, te: TE, target: Repr) -> R<TE> {
        match (te.repr, target) {
            (a, b) if a == b => Ok(te),
            (Repr::I64, Repr::F64) => Ok(TE::new(format!("({} as f64)", te.s), Repr::F64)),
            (Repr::F64, Repr::I64) => Ok(TE::new(format!("({} as i64)", te.s), Repr::I64)),
            (a, b) => err(format!(
                "cannot coerce {} to {} (the interpreter would panic here)",
                a.name(),
                b.name()
            )),
        }
    }

    /// Renders `apply_bin(op, l, r)`.
    fn bin_te(&self, op: BinOp, l: TE, r: TE) -> R<TE> {
        use BinOp::*;
        match op {
            Add | Sub | Mul | Div => {
                if !l.repr.is_numeric() || !r.repr.is_numeric() {
                    return err(format!(
                        "arithmetic on {}/{} (the interpreter would panic here)",
                        l.repr.name(),
                        r.repr.name()
                    ));
                }
                if l.repr == Repr::I64 && r.repr == Repr::I64 {
                    Ok(match op {
                        Add => TE::new(format!("{}.wrapping_add({})", l.s, r.s), Repr::I64),
                        Sub => TE::new(format!("{}.wrapping_sub({})", l.s, r.s), Repr::I64),
                        Mul => TE::new(format!("{}.wrapping_mul({})", l.s, r.s), Repr::I64),
                        Div => TE::new(
                            format!("gm_core::value::div_i64({}, {})", l.s, r.s),
                            Repr::I64,
                        ),
                        _ => unreachable!(),
                    })
                } else {
                    let l = self.coerce_te(l, Repr::F64)?;
                    let r = self.coerce_te(r, Repr::F64)?;
                    let sym = match op {
                        Add => "+",
                        Sub => "-",
                        Mul => "*",
                        Div => "/",
                        _ => unreachable!(),
                    };
                    Ok(TE::new(format!("({} {} {})", l.s, sym, r.s), Repr::F64))
                }
            }
            Mod => {
                if l.repr == Repr::I64 && r.repr == Repr::I64 {
                    let s = format!("gm_core::value::mod_i64({}, {})", l.s, r.s);
                    Ok(TE::new(s, Repr::I64))
                } else {
                    err("% on non-integers (the interpreter would panic here)")
                }
            }
            Eq | Ne => {
                let sym = if op == Eq { "==" } else { "!=" };
                let same_native = l.repr == r.repr
                    && matches!(l.repr, Repr::I64 | Repr::Bool | Repr::Node | Repr::Edge);
                if same_native {
                    Ok(TE::new(format!("({} {} {})", l.s, sym, r.s), Repr::Bool))
                } else if l.repr.is_numeric() && r.repr.is_numeric() {
                    let l = self.coerce_te(l, Repr::F64)?;
                    let r = self.coerce_te(r, Repr::F64)?;
                    Ok(TE::new(format!("({} {} {})", l.s, sym, r.s), Repr::Bool))
                } else {
                    err(format!(
                        "equality between {}/{} (the interpreter would panic here)",
                        l.repr.name(),
                        r.repr.name()
                    ))
                }
            }
            Lt | Le | Gt | Ge => {
                let sym = match op {
                    Lt => "<",
                    Le => "<=",
                    Gt => ">",
                    Ge => ">=",
                    _ => unreachable!(),
                };
                if l.repr == Repr::I64 && r.repr == Repr::I64 {
                    Ok(TE::new(format!("({} {} {})", l.s, sym, r.s), Repr::Bool))
                } else if l.repr.is_numeric() && r.repr.is_numeric() {
                    // Native f64 comparisons are false on NaN, matching the
                    // interpreter's partial_cmp-None-is-false rule.
                    let l = self.coerce_te(l, Repr::F64)?;
                    let r = self.coerce_te(r, Repr::F64)?;
                    Ok(TE::new(format!("({} {} {})", l.s, sym, r.s), Repr::Bool))
                } else {
                    err(format!(
                        "ordering between {}/{} (the interpreter would panic here)",
                        l.repr.name(),
                        r.repr.name()
                    ))
                }
            }
            And | Or => {
                if l.repr != Repr::Bool || r.repr != Repr::Bool {
                    return err("logical operator on non-booleans");
                }
                let sym = if op == And { "&&" } else { "||" };
                Ok(TE::new(format!("({} {} {})", l.s, sym, r.s), Repr::Bool))
            }
        }
    }

    /// Renders `apply_un(op, v)`.
    fn un_te(&self, op: UnOp, v: TE) -> R<TE> {
        match (op, v.repr) {
            (UnOp::Neg, Repr::I64 | Repr::F64) => Ok(TE::new(format!("(-({}))", v.s), v.repr)),
            (UnOp::Not, Repr::Bool) => Ok(TE::new(format!("(!({}))", v.s), Repr::Bool)),
            (UnOp::Abs, Repr::I64 | Repr::F64) => Ok(TE::new(format!("{}.abs()", v.s), v.repr)),
            (op, r) => err(format!("unary {op:?} not applicable to {}", r.name())),
        }
    }

    /// Renders `apply_reduce(op, cur, inc)` where both sides share `repr`
    /// (call sites coerce `inc` first, exactly like the interpreter's
    /// coerce-then-reduce order for typed targets, and like `as_f64`
    /// widening for mixed aggregate folds).
    fn reduce_expr(&self, op: AssignOp, cur: &str, inc: &str, repr: Repr) -> R<String> {
        Ok(match op {
            AssignOp::Assign | AssignOp::Defer => inc.to_owned(),
            AssignOp::Add => match repr {
                Repr::I64 => format!("{cur}.wrapping_add({inc})"),
                Repr::F64 => format!("({cur} + {inc})"),
                r => return err(format!("+= on {}", r.name())),
            },
            AssignOp::Sub => match repr {
                Repr::I64 => format!("{cur}.wrapping_sub({inc})"),
                Repr::F64 => format!("({cur} - {inc})"),
                r => return err(format!("-= on {}", r.name())),
            },
            AssignOp::Mul => match repr {
                Repr::I64 => format!("{cur}.wrapping_mul({inc})"),
                Repr::F64 => format!("({cur} * {inc})"),
                r => return err(format!("*= on {}", r.name())),
            },
            AssignOp::Min => match repr {
                Repr::I64 | Repr::F64 | Repr::Node => format!("{cur}.min({inc})"),
                r => return err(format!("min= on {}", r.name())),
            },
            AssignOp::Max => match repr {
                Repr::I64 | Repr::F64 | Repr::Node => format!("{cur}.max({inc})"),
                r => return err(format!("max= on {}", r.name())),
            },
            AssignOp::And => match repr {
                Repr::Bool => format!("({cur} && {inc})"),
                r => return err(format!("&= on {}", r.name())),
            },
            AssignOp::Or => match repr {
                Repr::Bool => format!("({cur} || {inc})"),
                r => return err(format!("|= on {}", r.name())),
            },
        })
    }

    /// Renders `to_g(v)` — wrapping a native value as a `GlobalValue`.
    fn gv_wrap(&self, te: &TE) -> String {
        match te.repr {
            Repr::I64 => format!("GlobalValue::Int({})", te.s),
            Repr::F64 => format!("GlobalValue::Double({})", te.s),
            Repr::Bool => format!("GlobalValue::Bool({})", te.s),
            Repr::Node => format!("GlobalValue::Node({})", te.s),
            Repr::Edge => format!("GlobalValue::Int(({}) as i64)", te.s),
        }
    }

    fn reduce_op_name(&self, op: AssignOp) -> R<&'static str> {
        Ok(match op {
            AssignOp::Add => "ReduceOp::Sum",
            AssignOp::Min => "ReduceOp::Min",
            AssignOp::Max => "ReduceOp::Max",
            AssignOp::Or => "ReduceOp::Or",
            AssignOp::And => "ReduceOp::And",
            other => {
                return err(format!(
                    "global reduction operator {other:?} not supported by the runtime"
                ))
            }
        })
    }

    /// Records (and consistency-checks) the repr pushed into an aggregate.
    fn record_agg(&mut self, key: &str, repr: Repr) -> R<()> {
        match self.agg_repr.get(key) {
            Some(&r) if r != repr => err(format!(
                "aggregate `{key}` reduced at both {} and {}",
                r.name(),
                repr.name()
            )),
            Some(_) => Ok(()),
            None => {
                self.agg_repr.insert(key.to_owned(), repr);
                Ok(())
            }
        }
    }
}

// ---- master-side emission ----

impl<'a> Gen<'a> {
    /// Shared ternary assembly: branch-wise coercion to `coerce` (the
    /// checker's value-type annotation; the interpreter coerces the taken
    /// branch), identical branch reprs otherwise. Only the taken branch
    /// evaluates.
    fn ternary_te(&mut self, coerce: Option<&Ty>, c: TE, t: TE, f: TE) -> R<TE> {
        if c.repr != Repr::Bool {
            return err("ternary condition is not boolean");
        }
        let coerce = coerce.map(Repr::of_ty).transpose()?;
        match coerce {
            Some(target) => {
                let t = self.coerce_te(t, target)?;
                let f = self.coerce_te(f, target)?;
                Ok(TE::new(
                    format!("(if {} {{ {} }} else {{ {} }})", c.s, t.s, f.s),
                    target,
                ))
            }
            None => {
                if t.repr != f.repr {
                    return err(format!(
                        "ternary branches have reprs {}/{} and no coercion annotation",
                        t.repr.name(),
                        f.repr.name()
                    ));
                }
                Ok(TE::new(
                    format!("(if {} {{ {} }} else {{ {} }})", c.s, t.s, f.s),
                    t.repr,
                ))
            }
        }
    }

    /// Emits the leg's `master`, `post` and `transition` methods: one match
    /// arm per state that has code (indent level 1).
    fn emit_master_fns(&mut self, lowered: &Lowered, b: &mut Buf) -> R<()> {
        // Master code has no locals.
        let mut cx = KernelCx {
            g: self,
            local_names: &[],
            locals: Vec::new(),
            payload: Vec::new(),
        };
        let blocks = [
            ("fn master(&self, state: usize, g: &mut Globals, m: &mut Master<'_>) {", false),
            ("fn post(&self, state: usize, g: &mut Globals, m: &mut Master<'_>, agg: Option<&MasterContext<'_>>) {", true),
        ];
        for (header, post) in blocks {
            b.open(header);
            b.open("match state {");
            for (i, s) in lowered.masters.iter().enumerate() {
                let block = if post { &s.post } else { &s.master };
                if !block.is_empty() {
                    b.open(&format!("{i} => {{"));
                    cx.emit_minstrs(block, b, post)?;
                    b.close("}");
                }
            }
            b.line("_ => {}");
            b.close("}");
            b.close("}");
            b.line("");
        }
        b.open("fn transition(&self, state: usize, g: &Globals, m: &mut Master<'_>) -> Option<usize> {");
        b.open("match state {");
        for (i, s) in lowered.masters.iter().enumerate() {
            match &s.transition {
                Transition::Goto(t) => b.line(&format!("{i} => Some({t}),")),
                Transition::Branch {
                    cond,
                    then_to,
                    else_to,
                } => {
                    let c = cx.cond(cond, VPlace::Master, "transition condition")?;
                    b.line(&format!(
                        "{i} => Some(if {c} {{ {then_to} }} else {{ {else_to} }}),"
                    ));
                }
                Transition::Halt => {}
            }
        }
        b.line("_ => None,");
        b.close("}");
        b.close("}");
        Ok(())
    }
}

// ---- printing lowered code: the kernels and master code of [`crate::kernel`] ----

/// Where an expression is being evaluated, which decides how vertex
/// leaves render (snapshot vs. live property reads, pull-side renames).
#[derive(Clone, Copy, PartialEq)]
enum VPlace {
    /// Receive handler: property reads go to the snapshot bindings when the
    /// kernel needs one; payload bindings are in scope.
    Recv { snap: bool },
    /// Filter or body.
    Body,
    /// Master code: no vertex leaves; the graph and RNG come from `m`.
    Master,
    /// `pull_message`: the *sender's* row via `src_value`, no locals.
    Pull,
}

/// Emission state for lowered code, one kernel's or the master's: the
/// native names of its local and payload slots.
struct KernelCx<'a, 'g> {
    g: &'g mut Gen<'a>,
    /// Per local slot: the local's name and type.
    local_names: &'g [(String, Ty)],
    /// Per local slot: field name (sans `l_`), repr.
    locals: Vec<(String, Repr)>,
    /// Per payload position of the current handler: field name, repr.
    payload: Vec<(String, Repr)>,
}

impl<'a, 'g> KernelCx<'a, 'g> {
    /// A kernel's context: its locals.
    fn new(g: &'g mut Gen<'a>, k: &'g CKernel) -> R<Self> {
        let mut used = HashSet::new();
        let locals = (k.locals.iter())
            .map(|(name, ty)| Ok((sanitize(name, &mut used), Repr::of_ty(ty)?)))
            .collect::<R<_>>()?;
        Ok(KernelCx {
            g,
            local_names: &k.locals,
            locals,
            payload: Vec::new(),
        })
    }

    fn expr(&mut self, e: &CExpr, place: VPlace, edge: Option<&str>) -> R<TE> {
        match e {
            CExpr::Const(v) => Ok(const_te(*v)),
            CExpr::Prop(slot) => {
                let (field, repr) = &self.g.prop_fields[*slot];
                let s = match place {
                    VPlace::Recv { snap: true } => format!("snap_{field}"),
                    VPlace::Recv { snap: false } | VPlace::Body | VPlace::Master => {
                        format!("value.{field}")
                    }
                    VPlace::Pull => format!("src_value.{field}"),
                };
                Ok(TE::new(s, *repr))
            }
            CExpr::EdgeProp(slot) => {
                let Some(edge) = edge else {
                    return err(format!(
                        "edge property `{}` read outside a neighbor-send payload",
                        self.g.p.edge_props[*slot].0
                    ));
                };
                let (field, repr) = &self.g.edge_fields[*slot];
                Ok(TE::new(format!("self.ep_{field}[{edge}]"), *repr))
            }
            CExpr::Payload(i) => {
                let (field, repr) = &self.payload[*i];
                Ok(TE::new(format!("p_{field}"), *repr))
            }
            CExpr::Local(slot) => {
                let (field, repr) = &self.locals[*slot];
                Ok(TE::new(format!("l_{field}"), *repr))
            }
            CExpr::Global(slot) => Ok(self.g.global_te(*slot)),
            CExpr::SelfId => Ok(TE::new(
                if place == VPlace::Pull {
                    "src.0"
                } else {
                    "self_id"
                },
                Repr::Node,
            )),
            CExpr::NumNodes | CExpr::NumEdges => {
                let graph = match place {
                    VPlace::Master => "m.graph",
                    VPlace::Pull => "graph",
                    _ => "ctx.graph()",
                };
                let what = if matches!(e, CExpr::NumNodes) {
                    "nodes"
                } else {
                    "edges"
                };
                Ok(TE::new(format!("({graph}.num_{what}() as i64)"), Repr::I64))
            }
            CExpr::PickRandom if place == VPlace::Master => {
                Ok(TE::new("m.pick_random()", Repr::Node))
            }
            CExpr::PickRandom => err("PickRandom outside master code"),
            CExpr::OutDegree => Ok(TE::new(
                if place == VPlace::Pull {
                    "(graph.out_degree(src) as i64)"
                } else {
                    "(out_degree as i64)"
                },
                Repr::I64,
            )),
            CExpr::InDegree => Ok(match place {
                VPlace::Recv { .. } => TE::new("in_deg", Repr::I64),
                VPlace::Body | VPlace::Master => TE::new("(value.in_nbrs.len() as i64)", Repr::I64),
                VPlace::Pull => TE::new("(src_value.in_nbrs.len() as i64)", Repr::I64),
            }),
            CExpr::Un(op, inner) => {
                let v = self.expr(inner, place, edge)?;
                self.g.un_te(*op, v)
            }
            CExpr::Bin(op, lhs, rhs) => {
                let l = self.expr(lhs, place, edge)?;
                let r = self.expr(rhs, place, edge)?;
                self.g.bin_te(*op, l, r)
            }
            CExpr::Ternary {
                cond,
                then_val,
                else_val,
                coerce,
            } => {
                let c = self.expr(cond, place, edge)?;
                let t = self.expr(then_val, place, edge)?;
                let f = self.expr(else_val, place, edge)?;
                self.g.ternary_te(coerce.as_ref(), c, t, f)
            }
        }
    }

    /// Prints `e` as a condition; `what` names it in the error.
    fn cond(&mut self, e: &CExpr, place: VPlace, what: &str) -> R<String> {
        let te = self.expr(e, place, None)?;
        if te.repr != Repr::Bool {
            return err(format!("{what} is not boolean"));
        }
        Ok(te.s)
    }

    /// Emits `let <tmp>: <repr> = <e coerced to repr>;` and returns `<tmp>`.
    fn emit_temp(&mut self, buf: &mut Buf, e: &CExpr, place: VPlace, repr: Repr) -> R<String> {
        let te = self.expr(e, place, None)?;
        let te = self.g.coerce_te(te, repr)?;
        let tmp = self.g.fresh_temp();
        buf.line(&format!("let {tmp}: {} = {};", repr.rust(), te.s));
        Ok(tmp)
    }

    /// Emits `target op= e` at `repr`, through a typed temporary.
    fn emit_write(
        &mut self,
        buf: &mut Buf,
        target: &str,
        op: AssignOp,
        e: &CExpr,
        place: VPlace,
        repr: Repr,
    ) -> R<()> {
        let tmp = self.emit_temp(buf, e, place, repr)?;
        let red = self.g.reduce_expr(op, target, &tmp, repr)?;
        buf.line(&format!("{target} = {red};"));
        Ok(())
    }

    /// Renders a message construction `Msg::Mk { f: <expr>, ... }` with
    /// struct-literal field order equal to payload evaluation order.
    fn msg_literal(
        &mut self,
        tag: u8,
        payload: &[CExpr],
        place: VPlace,
        edge: Option<&str>,
    ) -> R<String> {
        let (variant, fields) = self.g.msg_variants[tag as usize].clone();
        if fields.len() != payload.len() {
            return err(format!(
                "message {tag} has {} fields but {} payload expressions",
                fields.len(),
                payload.len()
            ));
        }
        let mut parts = Vec::new();
        for (e, (fname, frepr)) in payload.iter().zip(&fields) {
            let te = self.expr(e, place, edge)?;
            if te.repr != *frepr {
                return err(format!(
                    "message {tag} field `{fname}` declared {} but payload expression is {}",
                    frepr.name(),
                    te.repr.name()
                ));
            }
            parts.push(format!("{fname}: {}", te.s));
        }
        Ok(format!("Msg::{variant} {{ {} }}", parts.join(", ")))
    }

    /// Emits a master instruction list. `has_agg` is true inside `post_N`
    /// functions, whose `agg` parameter carries the vertex aggregates; in
    /// plain master blocks the interpreter passes `None`, making `FoldAgg`
    /// a no-op, so none is emitted there.
    ///
    /// `Return` returns from the whole block, so no later instruction runs
    /// once the machine finished.
    fn emit_minstrs(&mut self, instrs: &[CMInstr], buf: &mut Buf, has_agg: bool) -> R<()> {
        for m in instrs {
            match m {
                CMInstr::Assign {
                    slot, op, value, ..
                } => {
                    let (field, repr) = self.g.global_fields[*slot].clone();
                    let target = format!("g.{field}");
                    self.emit_write(buf, &target, *op, value, VPlace::Master, repr)?;
                }
                CMInstr::FoldAgg { slot, op, agg_key } => {
                    if !has_agg {
                        continue;
                    }
                    let Some(&arepr) = self.g.agg_repr.get(agg_key) else {
                        // No vertex ever reduces this key, so `ctx.agg`
                        // always returns None at runtime: fold is dead.
                        continue;
                    };
                    let (field, grepr) = self.g.global_fields[*slot].clone();
                    if arepr != grepr && !(arepr == Repr::I64 && grepr == Repr::F64) {
                        return err(format!(
                            "aggregate `{agg_key}` ({}) folds into `{}` ({}) — \
                             narrowing fold not representable natively",
                            arepr.name(),
                            self.g.p.globals[*slot].0,
                            grepr.name()
                        ));
                    }
                    let (variant, bind_repr) = match arepr {
                        Repr::I64 => ("GlobalValue::Int(x)", Repr::I64),
                        Repr::F64 => ("GlobalValue::Double(x)", Repr::F64),
                        Repr::Bool => ("GlobalValue::Bool(x)", Repr::Bool),
                        Repr::Node => ("GlobalValue::Node(x)", Repr::Node),
                        Repr::Edge => return err(format!("aggregate `{agg_key}` has edge repr")),
                    };
                    buf.open("if let Some(ctx) = agg {");
                    buf.open(&format!("if let Some(gv) = ctx.agg(\"{agg_key}\") {{"));
                    buf.line(&format!(
                        "let inc: {} = match gv {{ {variant} => x, \
                         other => panic!(\"aggregate `{agg_key}` holds {{other:?}}\") }};",
                        bind_repr.rust()
                    ));
                    let inc = self.g.coerce_te(TE::new("inc", arepr), grepr)?;
                    let red = self
                        .g
                        .reduce_expr(*op, &format!("g.{field}"), &inc.s, grepr)?;
                    buf.line(&format!("g.{field} = {red};"));
                    buf.close("}");
                    buf.close("}");
                }
                CMInstr::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let c = self.cond(cond, VPlace::Master, "master If condition")?;
                    buf.open(&format!("if {c} {{"));
                    self.emit_minstrs(then_branch, buf, has_agg)?;
                    if else_branch.is_empty() {
                        buf.close("}");
                    } else {
                        buf.close("} else {");
                        buf.ind += 1;
                        self.emit_minstrs(else_branch, buf, has_agg)?;
                        buf.close("}");
                    }
                }
                CMInstr::SetReturn { value, .. } => {
                    let ret = match (value, self.g.ret_repr) {
                        (Some(e), Some(repr)) => {
                            let te = self.expr(e, VPlace::Master, None)?;
                            let te = self.g.coerce_te(te, repr)?;
                            format!("Some({})", value_wrap(&te.s, repr))
                        }
                        (Some(_), None) => {
                            return err("Return with a value in a procedure with no return type")
                        }
                        (None, _) => "None".to_owned(),
                    };
                    buf.line(&format!("m.finish({ret});"));
                    buf.line("return;");
                }
            }
        }
        Ok(())
    }

    fn emit_vinstrs(&mut self, instrs: &[CInstr], buf: &mut Buf) -> R<()> {
        for i in instrs {
            match i {
                CInstr::Local {
                    slot,
                    op,
                    value,
                    ty,
                } => {
                    let repr = Repr::of_ty(ty)?;
                    let (field, first) = self.locals[*slot].clone();
                    if first != repr {
                        return err(format!(
                            "local `{}` written at both {} and {}",
                            self.local_names[*slot].0,
                            first.name(),
                            repr.name()
                        ));
                    }
                    self.emit_write(buf, &format!("l_{field}"), *op, value, VPlace::Body, repr)?;
                }
                CInstr::WriteOwn {
                    prop, op, value, ..
                } => {
                    let (field, repr) = self.g.prop_fields[*prop].clone();
                    if *op == AssignOp::Defer {
                        let tmp = self.emit_temp(buf, value, VPlace::Body, repr)?;
                        buf.line(&format!("d_{field} = Some({tmp});"));
                    } else {
                        let target = format!("value.{field}");
                        self.emit_write(buf, &target, *op, value, VPlace::Body, repr)?;
                    }
                }
                CInstr::ReduceGlobal { name, op, value } => {
                    let te = self.expr(value, VPlace::Body, None)?;
                    self.g.record_agg(name, te.repr)?;
                    let opname = self.g.reduce_op_name(*op)?;
                    let gv = self.g.gv_wrap(&te);
                    buf.line(&format!("ctx.reduce_global(\"{name}\", {opname}, {gv});"));
                }
                CInstr::SendToNbrs {
                    tag,
                    payload,
                    edge_dependent,
                } => {
                    if *edge_dependent {
                        buf.open("if !ctx.mark_send() {");
                        buf.open("for (t, e) in ctx.out_neighbors() {");
                        let m = self.msg_literal(*tag, payload, VPlace::Body, Some("e.index()"))?;
                        buf.line(&format!("ctx.send(t, {m});"));
                        buf.close("}");
                        buf.close("}");
                    } else {
                        let m = self.msg_literal(*tag, payload, VPlace::Body, None)?;
                        buf.line(&format!("ctx.send_to_nbrs({m});"));
                    }
                }
                CInstr::SendToInNbrs { tag, payload } => {
                    let m = self.msg_literal(*tag, payload, VPlace::Body, None)?;
                    let tmp = self.g.fresh_temp();
                    buf.line(&format!("let {tmp}: Msg = {m};"));
                    buf.open("for &nbr in value.in_nbrs.iter() {");
                    buf.line(&format!("ctx.send(NodeId(nbr), {tmp});"));
                    buf.close("}");
                }
                CInstr::SendTo { dst, tag, payload } => {
                    let d = self.expr(dst, VPlace::Body, None)?;
                    if d.repr != Repr::Node {
                        return err("SendTo destination is not a node");
                    }
                    let tmp = self.g.fresh_temp();
                    buf.line(&format!("let {tmp}: u32 = {};", d.s));
                    let m = self.msg_literal(*tag, payload, VPlace::Body, None)?;
                    buf.line(&format!("ctx.send(NodeId({tmp}), {m});"));
                }
                CInstr::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let c = self.cond(cond, VPlace::Body, "vertex If condition")?;
                    buf.open(&format!("if {c} {{"));
                    self.emit_vinstrs(then_branch, buf)?;
                    if else_branch.is_empty() {
                        buf.close("}");
                    } else {
                        buf.close("} else {");
                        buf.ind += 1;
                        self.emit_vinstrs(else_branch, buf)?;
                        buf.close("}");
                    }
                }
            }
        }
        Ok(())
    }
}

impl<'a> Gen<'a> {
    /// Emits all `vertex_{i}` inherent methods (indent level 1), filling
    /// `agg_repr` along the way.
    fn emit_vertex_fns(&mut self, lowered: &Lowered) -> R<Buf> {
        let mut b = Buf::new(1);
        for (i, kernel) in lowered.kernels.iter().enumerate() {
            let Some(kernel) = kernel else {
                continue;
            };
            b.line(&format!("fn vertex_{i}("));
            b.line("    &self,");
            b.line("    g: &Globals,");
            b.line("    ctx: &mut VertexContext<'_, '_, Msg>,");
            b.line("    value: &mut VertexValue,");
            b.line("    messages: Inbox<'_, Msg>,");
            b.open(") {");
            b.line("let self_id: u32 = ctx.id().0;");
            b.line("let out_degree: u32 = ctx.out_degree();");
            self.emit_kernel(kernel, &mut b)?;
            b.close("}");
            b.line("");
        }
        Ok(b)
    }

    /// Emits one kernel's receive phase + body, with the interpreter's
    /// `vertex_compute` structure statement for statement.
    fn emit_kernel(&mut self, kernel: &CKernel, b: &mut Buf) -> R<()> {
        let mut cx = KernelCx::new(self, kernel)?;
        let place = VPlace::Recv {
            snap: kernel.snapshot_needed,
        };

        // ---- receive phase ----
        if !kernel.recvs.is_empty() {
            b.open("if !messages.is_empty() {");
            if kernel.snapshot_needed {
                for (field, repr) in &cx.g.prop_fields {
                    b.line(&format!(
                        "let snap_{field}: {} = value.{field};",
                        repr.rust()
                    ));
                }
            }
            b.open("messages.for_each(|msg| {");
            b.line("let in_deg: i64 = value.in_nbrs.len() as i64;");
            b.open("match *msg {");
            for h in &kernel.recvs {
                let (variant, vfields) = cx.g.msg_variants[h.tag as usize].clone();
                let pattern = if vfields.is_empty() {
                    format!("Msg::{variant} {{}}")
                } else {
                    format!(
                        "Msg::{variant} {{ {} }}",
                        vfields
                            .iter()
                            .map(|(f, _)| format!("{f}: p_{f}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                };
                cx.payload = vfields;
                b.open(&format!("{pattern} => {{"));
                if let Some(g) = &h.guard {
                    let g = cx.cond(g, place, "receive guard")?;
                    b.open(&format!("if !({g}) {{"));
                    b.line("return;");
                    b.close("}");
                }
                for st in &h.steps {
                    let guard = (st.guard.as_ref())
                        .map(|g| cx.cond(g, place, "receive step guard"))
                        .transpose()?;
                    if let Some(g) = &guard {
                        b.open(&format!("if {g} {{"));
                    }
                    match &st.action {
                        CAction::WriteOwn {
                            prop, op, value, ..
                        } => {
                            let (field, repr) = cx.g.prop_fields[*prop].clone();
                            cx.emit_write(b, &format!("value.{field}"), *op, value, place, repr)?;
                        }
                        CAction::ReduceGlobal { name, op, value } => {
                            let te = cx.expr(value, place, None)?;
                            cx.g.record_agg(name, te.repr)?;
                            let opname = cx.g.reduce_op_name(*op)?;
                            let gv = cx.g.gv_wrap(&te);
                            b.line(&format!("ctx.reduce_global(\"{name}\", {opname}, {gv});"));
                        }
                        CAction::StoreInNbr => {
                            // Verified PIR: the payload is one node id.
                            b.line(&format!("value.in_nbrs.push(p_{});", cx.payload[0].0));
                        }
                    }
                    if guard.is_some() {
                        b.close("}");
                    }
                }
                b.close("}");
            }
            b.line("_ => {}");
            b.close("}");
            b.close("});");
            b.close("}");
        }

        // ---- body phase ----
        let filter_te = (kernel.filter.as_ref())
            .map(|f| cx.cond(f, VPlace::Body, "vertex filter"))
            .transpose()?;

        // Own-property slots the body writes with `<=` (deferred to kernel
        // end), in first-write order.
        let mut deferred = Vec::new();
        CInstr::visit(&kernel.body, &mut |i| match i {
            CInstr::WriteOwn {
                prop,
                op: AssignOp::Defer,
                ..
            } if !deferred.contains(prop) => deferred.push(*prop),
            _ => {}
        });
        let body_ind = b.ind + usize::from(filter_te.is_some());
        let mut body_buf = Buf::new(body_ind);
        cx.emit_vinstrs(&kernel.body, &mut body_buf)?;

        for &prop in &deferred {
            let (field, repr) = &cx.g.prop_fields[prop];
            b.line(&format!(
                "let mut d_{field}: Option<{}> = None;",
                repr.rust()
            ));
        }
        if let Some(f) = &filter_te {
            b.line(&format!("let filter_ok: bool = {f};"));
            b.open("if filter_ok {");
        }
        for (field, repr) in &cx.locals {
            b.line(&format!(
                "let mut l_{field}: {} = {};",
                repr.rust(),
                repr.default_expr()
            ));
        }
        b.push_buf(&body_buf);
        if filter_te.is_some() {
            b.close("}");
        }
        for &prop in &deferred {
            let field = &cx.g.prop_fields[prop].0;
            b.open(&format!("if let Some(x) = d_{field} {{"));
            b.line(&format!("value.{field} = x;"));
            b.close("}");
        }
        Ok(())
    }

    /// Emits the `match state` arms of `pull_message` for every
    /// `Recomputed` state. Returns `None` when no state needs one.
    fn emit_pull_arms(&mut self, lowered: &Lowered) -> R<Option<Buf>> {
        let mut b = Buf::new(3);
        let mut any = false;
        for (i, kernel) in lowered.kernels.iter().enumerate() {
            let Some(
                kernel @ CKernel {
                    pull: CPull::Recomputed(site),
                    ..
                },
            ) = kernel
            else {
                continue;
            };
            any = true;
            let mut cx = KernelCx::new(self, kernel)?;
            let m = cx.msg_literal(site.tag, &site.payload, VPlace::Pull, Some("edge.index()"))?;
            b.line(&format!("{i} => {m},"));
        }
        Ok(any.then_some(b))
    }
}

// ---- whole-module assembly ----

/// Type names a generated module defines or imports, which the program's
/// own struct must not shadow.
const RESERVED: &[&str] = &[
    "Globals",
    "Graph",
    "Leg",
    "Master",
    "Msg",
    "Row",
    "Signature",
    "State",
    "Ty",
    "Value",
    "VertexValue",
];

impl<'a> Gen<'a> {
    fn emit(mut self) -> R<String> {
        if self.p.states.is_empty() {
            return err("program has no states");
        }
        // Kernel emission first: it fills `agg_repr`, consulted when
        // printing master-side `FoldAgg`.
        let lowered = kernel::lower(self.p)?;
        let mut vertex_fns = self.emit_vertex_fns(&lowered)?;
        // No blank line before the impl's closing brace.
        vertex_fns.s.truncate(vertex_fns.s.trim_end().len() + 1);
        let mut master_fns = Buf::new(1);
        self.emit_master_fns(&lowered, &mut master_fns)?;
        let pull_arms = self.emit_pull_arms(&lowered)?;
        if RESERVED.contains(&self.struct_name.as_str()) {
            self.struct_name.push_str("Prog");
        }
        let name = self.struct_name.clone();

        let mut out = Buf::new(0);
        out.line(&format!(
            "//! @generated by `gm-core::rustgen` from the Green-Marl procedure `{}`.",
            self.p.name
        ));
        out.line("//! DO NOT EDIT: regenerate with `gmc emit-rust` (goldens: rerun the");
        out.line("//! `rustgen_golden` test with `GM_UPDATE_GOLDEN=1`).");
        out.line("#![allow(clippy::all)]");
        out.line("#![allow(dead_code, non_snake_case, unreachable_patterns, unused_assignments, unused_imports, unused_mut, unused_parens, unused_variables)]");
        out.line("");
        out.line("use gm_core::seqinterp::ArgValue;");
        out.line("use gm_core::types::Ty;");
        out.line("use gm_core::value::Value;");
        out.line("use gm_graph::{EdgeId, Graph, NodeId};");
        out.line("use gm_interp::shell::{Leg, Master, Row, Signature, State};");
        out.line("use gm_interp::{CompiledOutcome, RunError};");
        out.line("use gm_pregel::{");
        out.line(
            "    ByteReader, CkptError, GlobalValue, Inbox, MasterContext, Persist, PregelConfig,",
        );
        out.line("    PullMode, ReduceOp, VertexContext,");
        out.line("};");
        out.line("use std::collections::HashMap;");
        out.line("");

        self.emit_signature(&mut out, &lowered)?;
        out.line("/// Per-vertex state: one native field per node property.");
        out.line("#[derive(Clone, Debug)]");
        emit_row(&mut out, "VertexValue", &self.prop_fields, true);
        self.emit_vertex_persist(&mut out);
        out.line("/// The master globals: one native field per global.");
        emit_row(&mut out, "Globals", &self.global_fields, false);
        self.emit_msg_enum(&mut out);

        out.line("/// The compiled program's vertex side: its edge columns.");
        if self.edge_fields.is_empty() {
            out.line(&format!("pub struct {name} {{}}"));
        } else {
            out.open(&format!("pub struct {name} {{"));
            for (field, repr) in &self.edge_fields {
                out.line(&format!("ep_{field}: Vec<{}>,", repr.rust()));
            }
            out.close("}");
        }
        out.line("");
        out.open(&format!("impl {name} {{"));
        out.push_buf(&vertex_fns);
        out.close("}");
        out.line("");
        self.emit_leg_impl(&mut out, &name, &master_fns, pull_arms.as_ref(), &lowered)?;
        out.line("");
        self.emit_run_fn(&mut out, &name);

        let mut s = out.s;
        while s.ends_with("\n\n") {
            s.pop();
        }
        Ok(s)
    }

    /// Emits `SIGNATURE`, the table `gm_interp::with_signature` derives
    /// from the same PIR.
    fn emit_signature(&self, out: &mut Buf, lowered: &Lowered) -> R<()> {
        let p = self.p;
        for (pname, pty) in &p.scalar_params {
            let global = p.globals.iter().position(|(g, _)| g == pname);
            if let Some(gi) =
                global.filter(|&gi| Repr::of_ty(pty).ok() != Some(self.global_fields[gi].1))
            {
                return err(format!(
                    "scalar parameter `{pname}` has type {pty} but its global is {}",
                    self.global_fields[gi].1.name()
                ));
            }
        }
        let table = |cols: &[(String, Ty)]| {
            let cols: Vec<String> =
                (cols.iter().map(|(n, ty)| format!("({n:?}, Ty::{ty:?})"))).collect();
            format!("&[{}]", cols.join(", "))
        };
        out.line("/// The program's interface, as `gm_interp::with_signature` derives it.");
        out.open("pub static SIGNATURE: Signature<'static> = Signature {");
        out.line(&format!("globals: {},", table(&p.globals)));
        out.line(&format!("node_props: {},", table(&p.node_props)));
        out.line(&format!("edge_props: {},", table(&p.edge_props)));
        out.line(&format!("params: {},", table(&p.scalar_params)));
        match &p.ret {
            Some(ty) => out.line(&format!("ret: Some(Ty::{ty:?}),")),
            None => out.line("ret: None,"),
        }
        out.open("states: &[");
        for k in &lowered.kernels {
            let kernel = match k {
                Some(k) => format!("Some(&{:?})", k.reads_globals),
                None => "None".to_owned(),
            };
            let pull = match k.as_ref().map(|k| &k.pull) {
                Some(CPull::Captured) => "Captured",
                Some(CPull::Recomputed(_)) => "Recomputed",
                Some(CPull::Push) | None => "Unsupported",
            };
            out.line(&format!(
                "State {{ kernel: {kernel}, pull: PullMode::{pull} }},"
            ));
        }
        out.close("],");
        out.close("};");
        out.line("");
        Ok(())
    }

    fn emit_vertex_persist(&self, out: &mut Buf) {
        out.open("impl Persist for VertexValue {");
        out.open("fn persist(&self, out: &mut Vec<u8>) {");
        for (field, _) in &self.prop_fields {
            out.line(&format!("self.{field}.persist(out);"));
        }
        out.line("self.in_nbrs.persist(out);");
        out.close("}");
        out.line("");
        out.open("fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {");
        out.open("Ok(VertexValue {");
        for (field, _) in &self.prop_fields {
            out.line(&format!("{field}: Persist::restore(r)?,"));
        }
        out.line("in_nbrs: Persist::restore(r)?,");
        out.close("})");
        out.close("}");
        out.close("}");
        out.line("");
    }

    fn emit_msg_enum(&self, out: &mut Buf) {
        let has_msgs = !self.msg_variants.is_empty();
        out.line("/// Messages: one monomorphized variant per tag.");
        out.line("#[derive(Clone, Copy, Debug)]");
        if has_msgs {
            out.open("pub enum Msg {");
            for (variant, fields) in &self.msg_variants {
                if fields.is_empty() {
                    out.line(&format!("{variant} {{}},"));
                } else {
                    let list = fields
                        .iter()
                        .map(|(f, r)| format!("{f}: {}", r.rust()))
                        .collect::<Vec<_>>()
                        .join(", ");
                    out.line(&format!("{variant} {{ {list} }},"));
                }
            }
            out.close("}");
        } else {
            out.line("pub enum Msg {}");
        }
        out.line("");
        out.open("impl Persist for Msg {");
        if has_msgs {
            out.open("fn persist(&self, out: &mut Vec<u8>) {");
            out.open("match *self {");
            for (tag, (variant, fields)) in self.msg_variants.iter().enumerate() {
                if fields.is_empty() {
                    out.open(&format!("Msg::{variant} {{}} => {{"));
                } else {
                    let binds = fields
                        .iter()
                        .map(|(f, _)| f.as_str())
                        .collect::<Vec<_>>()
                        .join(", ");
                    out.open(&format!("Msg::{variant} {{ {binds} }} => {{"));
                }
                out.line(&format!("{tag}u8.persist(out);"));
                for (f, _) in fields {
                    out.line(&format!("{f}.persist(out);"));
                }
                out.close("}");
            }
            out.close("}");
            out.close("}");
            out.line("");
            out.open("fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {");
            out.open("Ok(match u8::restore(r)? {");
            for (tag, (variant, fields)) in self.msg_variants.iter().enumerate() {
                if fields.is_empty() {
                    out.line(&format!("{tag}u8 => Msg::{variant} {{}},"));
                } else {
                    let inits = fields
                        .iter()
                        .map(|(f, _)| format!("{f}: Persist::restore(r)?"))
                        .collect::<Vec<_>>()
                        .join(", ");
                    out.line(&format!("{tag}u8 => Msg::{variant} {{ {inits} }},"));
                }
            }
            out.line("t => return Err(CkptError::Decode(format!(\"invalid Msg tag {t:#04x}\"))),");
            out.close("})");
            out.close("}");
        } else {
            out.open("fn persist(&self, _out: &mut Vec<u8>) {");
            out.line("match *self {}");
            out.close("}");
            out.line("");
            out.open("fn restore(_r: &mut ByteReader<'_>) -> Result<Self, CkptError> {");
            out.line("Err(CkptError::Decode(\"Msg has no variants\".to_owned()))");
            out.close("}");
        }
        out.close("}");
        out.line("");
    }

    fn emit_leg_impl(
        &self,
        out: &mut Buf,
        name: &str,
        master_fns: &Buf,
        pull_arms: Option<&Buf>,
        lowered: &Lowered,
    ) -> R<()> {
        let p = self.p;
        let has_msgs = !self.msg_variants.is_empty();
        out.open(&format!("impl Leg for {name} {{"));
        out.line("type Globals = Globals;");
        out.line("type VertexValue = VertexValue;");
        out.line("type Message = Msg;");
        out.line("");
        out.push_buf(master_fns);
        out.line("");
        out.open("fn message_bytes(&self, m: &Msg) -> u64 {");
        if has_msgs {
            out.open("match *m {");
            for (tag, (variant, _)) in self.msg_variants.iter().enumerate() {
                out.line(&format!(
                    "Msg::{variant} {{ .. }} => {}u64,",
                    p.message_bytes(tag as u8)
                ));
            }
            out.close("}");
        } else {
            out.line("match *m {}");
        }
        out.close("}");
        if let Some(tag) = lowered.in_nbr_tag() {
            let (variant, fields) = &self.msg_variants[tag as usize];
            let sender = &fields[0].0;
            out.line("");
            out.open("fn in_nbr(&self, m: &Msg) -> Option<u32> {");
            out.open("match *m {");
            out.line(&format!("Msg::{variant} {{ {sender} }} => Some({sender}),"));
            out.line("_ => None,");
            out.close("}");
            out.close("}");
        }

        if let Some(arms) = pull_arms {
            out.line("");
            out.line("fn pull_message(");
            out.line("    &self,");
            out.line("    state: usize,");
            out.line("    g: &Globals,");
            out.line("    graph: &Graph,");
            out.line("    src: NodeId,");
            out.line("    edge: EdgeId,");
            out.line("    src_value: &VertexValue,");
            out.open(") -> Msg {");
            out.open("match state {");
            out.push_buf(arms);
            out.line("s => panic!(\"pull_message called in push-only state {s}\"),");
            out.close("}");
            out.close("}");
        }

        out.line("");
        out.line("fn vertex_compute(");
        out.line("    &self,");
        out.line("    state: usize,");
        out.line("    g: &Globals,");
        out.line("    ctx: &mut VertexContext<'_, '_, Msg>,");
        out.line("    value: &mut VertexValue,");
        out.line("    messages: Inbox<'_, Msg>,");
        out.open(") {");
        out.open("match state {");
        for (i, s) in p.states.iter().enumerate() {
            if s.vertex.is_some() {
                out.line(&format!("{i} => self.vertex_{i}(g, ctx, value, messages),"));
            }
        }
        out.line("_ => {}");
        out.close("}");
        out.close("}");
        out.close("}");
        Ok(())
    }

    fn emit_run_fn(&self, out: &mut Buf, name: &str) {
        out.line("/// Entry point: the shared `gm_interp` shell around this leg.");
        out.line("pub fn run(");
        out.line("    graph: &Graph,");
        out.line("    args: &HashMap<String, ArgValue>,");
        out.line("    seed: u64,");
        out.line("    config: &PregelConfig,");
        out.open(") -> Result<CompiledOutcome, RunError> {");
        let call = "gm_interp::run_leg(&SIGNATURE, graph, args, seed, config,";
        if self.edge_fields.is_empty() {
            out.line(&format!("{call} |_| {name} {{}})"));
        } else {
            out.open(&format!("{call} |b| {name} {{"));
            for (i, (field, repr)) in self.edge_fields.iter().enumerate() {
                let elem = value_unwrap(*repr);
                out.line(&format!(
                    "ep_{field}: b.edge({i}).map(Value::{elem}).collect(),"
                ));
            }
            out.close("})");
        }
        out.close("}");
        out.line("");
    }
}

/// Emits struct `name` with one native field per `fields` entry (plus the
/// in-neighbor array for a vertex row) and its `Row` impl.
fn emit_row(out: &mut Buf, name: &str, fields: &[(String, Repr)], in_nbrs: bool) {
    out.open(&format!("pub struct {name} {{"));
    for (field, repr) in fields {
        out.line(&format!("pub {field}: {},", repr.rust()));
    }
    if in_nbrs {
        out.line("pub in_nbrs: Vec<u32>,");
    }
    out.close("}");
    out.line("");
    out.open(&format!("impl Row for {name} {{"));
    out.open("fn build(_: usize, v: impl Fn(usize) -> Value) -> Self {");
    out.open(&format!("{name} {{"));
    for (slot, (field, repr)) in fields.iter().enumerate() {
        out.line(&format!("{field}: v({slot}).{}(),", value_unwrap(*repr)));
    }
    if in_nbrs {
        out.line("in_nbrs: Vec::new(),");
    }
    out.close("}");
    out.close("}");
    out.line("");
    out.open("fn get(&self, slot: usize) -> Value {");
    out.open("match slot {");
    for (slot, (field, repr)) in fields.iter().enumerate() {
        out.line(&format!(
            "{slot} => {},",
            value_wrap(&format!("self.{field}"), *repr)
        ));
    }
    out.line("_ => unreachable!(),");
    out.close("}");
    out.close("}");
    if in_nbrs {
        out.line("");
        out.open("fn in_nbrs(&self) -> &[u32] {");
        out.line("&self.in_nbrs");
        out.close("}");
    }
    out.close("}");
    out.line("");
}

/// Compiles a verified [`PregelProgram`] into the source text of a
/// standalone Rust module implementing `gm_interp::Leg` natively —
/// monomorphized message enum, native property and global fields, inlined
/// expressions — plus its `SIGNATURE` and a `run` entry point into the shell
/// `gm_interp::run_compiled` shares, so argument handling, master state
/// and outcome shape are the interpreter's by construction.
pub fn emit_rust(program: &PregelProgram) -> Result<String, RustgenError> {
    Gen::new(program)?.emit()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile, CompileOptions};

    fn rust_of(src: &str) -> String {
        let compiled = compile(src, &CompileOptions::default()).expect("compiles");
        emit_rust(&compiled.program).expect("emits")
    }

    const NBR_SUM: &str = "Procedure f(G: Graph, foo: N_P<Int>, bar: N_P<Int>) {
        Foreach (n: G.Nodes) {
            Foreach (t: n.Nbrs) {
                t.foo += n.bar;
            }
        }
    }";

    #[test]
    fn emits_the_full_module_shape() {
        let rs = rust_of(NBR_SUM);
        assert!(rs.contains("pub struct VertexValue"), "{rs}");
        assert!(rs.contains("pub enum Msg"), "{rs}");
        assert!(rs.contains("impl Leg for F {"), "{rs}");
        assert!(
            rs.contains("pub static SIGNATURE: Signature<'static>"),
            "{rs}"
        );
        assert!(rs.contains("pub fn run("), "{rs}");
        assert!(rs.contains("impl Persist for VertexValue"), "{rs}");
        assert!(rs.contains("impl Persist for Msg"), "{rs}");
    }

    #[test]
    fn emission_is_deterministic() {
        assert_eq!(rust_of(NBR_SUM), rust_of(NBR_SUM));
    }

    #[test]
    fn an_unresolved_kernel_name_is_a_rustgen_error() {
        let mut compiled = compile(NBR_SUM, &CompileOptions::default()).expect("compiles");
        compiled
            .program
            .node_props
            .retain(|(name, _)| name != "bar");
        let e = emit_rust(&compiled.program).expect_err("`bar` no longer resolves");
        assert_eq!(e.to_string(), "rustgen: unknown property `bar`");
    }

    #[test]
    fn master_broadcast_aggregate_and_scalar_args_are_generated() {
        let rs = rust_of(
            "Procedure f(G: Graph, age: N_P<Int>, K: Int) : Int {
                Int s = 0;
                Foreach (n: G.Nodes)(n.age > K) {
                    s += n.age;
                }
                Return s;
            }",
        );
        // The broadcast and the argument come from the signature; the
        // shell performs both.
        assert!(rs.contains("params: &[(\"K\", Ty::Int)],"), "{rs}");
        assert!(rs.contains("kernel: Some(&[0])"), "{rs}");
        assert!(rs.contains("ctx.reduce_global(\"s\""), "{rs}");
        assert!(rs.contains("m.finish(Some(Value::Int(g.s)));"), "{rs}");
        for shell_part in [
            "master_compute",
            "save_master_state",
            "put_global",
            "fn elem_",
        ] {
            assert!(!rs.contains(shell_part), "{shell_part}: {rs}");
        }
    }
}
