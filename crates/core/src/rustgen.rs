//! Native Rust code generation: compiles a verified [`PregelProgram`] into
//! the source of a monomorphized [`gm_pregel::VertexProgram`] implementation.
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
//! * vertex/master state functions with all expressions **inlined at their
//!   native types**, combiners and aggregator folds included;
//! * the pullability contract (`pull_supported`/`pull_mode`/`pull_message`)
//!   baked in from the compiler's per-state verdicts, so `Schedule::Pull`
//!   and `Schedule::Auto` keep working natively;
//! * a `run` entry with the same signature semantics as
//!   `gm_interp::run_compiled`, returning the same `CompiledOutcome`.
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
use crate::kernel::{self, CAction, CExpr, CInstr, CKernel, CMInstr, Lowered};
use crate::pir::{PregelProgram, Transition, IN_NBRS_TAG};
use crate::pullability::{self, Pullability};
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
    pullable: Vec<Pullability>,
    /// Aggregate key → the repr every vertex-side `ReduceGlobal` pushes.
    agg_repr: HashMap<String, Repr>,
    uses_div: bool,
    uses_mod: bool,
    temp: usize,
}

impl<'a> Gen<'a> {
    fn new(p: &'a PregelProgram) -> R<Gen<'a>> {
        let mut prop_used: HashSet<String> = HashSet::new();
        prop_used.insert("in_nbrs".to_owned());
        let mut prop_fields = Vec::new();
        for (name, ty) in &p.node_props {
            let repr = Repr::of_ty(ty).map_err(|e| RustgenError {
                message: format!("node property `{name}`: {}", e.message),
            })?;
            prop_fields.push((sanitize(name, &mut prop_used), repr));
        }

        let mut edge_used = HashSet::new();
        let mut edge_fields = Vec::new();
        for (name, ty) in &p.edge_props {
            let repr = Repr::of_ty(ty).map_err(|e| RustgenError {
                message: format!("edge property `{name}`: {}", e.message),
            })?;
            edge_fields.push((sanitize(name, &mut edge_used), repr));
        }

        let mut global_used = HashSet::new();
        let mut global_fields = Vec::new();
        for (name, ty) in &p.globals {
            let repr = Repr::of_ty(ty).map_err(|e| RustgenError {
                message: format!("global `{name}`: {}", e.message),
            })?;
            global_fields.push((sanitize(name, &mut global_used), repr));
        }

        let mut msg_variants = Vec::new();
        for m in &p.messages {
            let mut field_used = HashSet::new();
            let mut fields = Vec::new();
            for (fname, fty) in &m.fields {
                let repr = Repr::of_ty(fty).map_err(|e| RustgenError {
                    message: format!("message {} field `{fname}`: {}", m.tag, e.message),
                })?;
                fields.push((sanitize(fname, &mut field_used), repr));
            }
            msg_variants.push((format!("M{}", m.tag), fields));
        }

        let ret_repr = match &p.ret {
            Some(ty) => Some(Repr::of_ty(ty)?),
            None => None,
        };

        let pullable = if p.pullable.len() == p.states.len() {
            p.pullable.clone()
        } else {
            pullability::analyze(p)
        };

        Ok(Gen {
            struct_name: camel(&p.name),
            prop_fields,
            edge_fields,
            global_fields,
            msg_variants,
            ret_repr,
            pullable,
            agg_repr: HashMap::new(),
            uses_div: false,
            uses_mod: false,
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
        TE::new(format!("self.g_{f}"), *repr)
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
    fn bin_te(&mut self, op: BinOp, l: TE, r: TE) -> R<TE> {
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
                        Div => {
                            self.uses_div = true;
                            TE::new(format!("gm_div_i64({}, {})", l.s, r.s), Repr::I64)
                        }
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
                    self.uses_mod = true;
                    Ok(TE::new(format!("gm_mod_i64({}, {})", l.s, r.s), Repr::I64))
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

    /// Renders a native value wrapped back into a tagged [`Value`].
    fn value_wrap(&self, expr: &str, repr: Repr) -> String {
        match repr {
            Repr::I64 => format!("Value::Int({expr})"),
            Repr::F64 => format!("Value::Double({expr})"),
            Repr::Bool => format!("Value::Bool({expr})"),
            Repr::Node => format!("Value::Node({expr})"),
            Repr::Edge => format!("Value::Edge({expr})"),
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

    /// Emits the per-state master/post/transition functions and their
    /// dispatchers, as inherent methods (indent level 1).
    fn emit_master_state_fns(&mut self, lowered: &Lowered) -> R<Buf> {
        let mut b = Buf::new(1);
        // Master code has no locals, and its global slot `i` is `p.globals[i]`.
        let globals = (0..self.p.globals.len()).collect();
        let mut cx = KernelCx {
            g: self,
            local_names: &[],
            locals: Vec::new(),
            globals,
            payload: Vec::new(),
        };
        for (i, s) in lowered.masters.iter().enumerate() {
            if !s.master.is_empty() {
                b.open(&format!("fn master_{i}(&mut self) {{"));
                cx.emit_minstrs(&s.master, &mut b, false)?;
                b.close("}");
                b.line("");
            }
            if !s.post.is_empty() {
                b.open(&format!(
                    "fn post_{i}(&mut self, agg: Option<&MasterContext<'_>>) {{"
                ));
                cx.emit_minstrs(&s.post, &mut b, true)?;
                b.close("}");
                b.line("");
            }
            b.open(&format!("fn transition_{i}(&mut self) -> Option<usize> {{"));
            match &s.transition {
                Transition::Goto(t) => b.line(&format!("Some({t}usize)")),
                Transition::Branch {
                    cond,
                    then_to,
                    else_to,
                } => {
                    let c = cx.cond(cond, VPlace::Body, "transition condition")?;
                    b.open(&format!("if {c} {{"));
                    b.line(&format!("Some({then_to}usize)"));
                    b.close("} else {");
                    b.ind += 1;
                    b.line(&format!("Some({else_to}usize)"));
                    b.close("}");
                }
                Transition::Halt => b.line("None"),
            }
            b.close("}");
            b.line("");
        }

        b.open("fn run_master(&mut self, state: usize) {");
        b.open("match state {");
        for (i, s) in lowered.masters.iter().enumerate() {
            if !s.master.is_empty() {
                b.line(&format!("{i} => self.master_{i}(),"));
            }
        }
        b.line("_ => {}");
        b.close("}");
        b.close("}");
        b.line("");

        b.open("fn run_post(&mut self, state: usize, agg: Option<&MasterContext<'_>>) {");
        b.open("match state {");
        for (i, s) in lowered.masters.iter().enumerate() {
            if !s.post.is_empty() {
                b.line(&format!("{i} => self.post_{i}(agg),"));
            }
        }
        b.line("_ => {}");
        b.close("}");
        b.close("}");
        b.line("");

        b.open("fn run_transition(&mut self, state: usize) -> Option<usize> {");
        b.open("match state {");
        for i in 0..lowered.masters.len() {
            b.line(&format!("{i} => self.transition_{i}(),"));
        }
        b.line("_ => None,");
        b.close("}");
        b.close("}");
        Ok(b)
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
    /// Filter, body, or master code (which has no vertex leaves).
    Body,
    /// `pull_message`: the *sender's* row via `src_value`, no locals.
    Pull,
}

/// Emission state for lowered code, one kernel's or the master's: the
/// native names of its local, global and payload slots.
struct KernelCx<'a, 'g> {
    g: &'g mut Gen<'a>,
    /// Per local slot: the local's name and type.
    local_names: &'g [(String, Ty)],
    /// Per local slot: field name (sans `l_`), repr.
    locals: Vec<(String, Repr)>,
    /// Per global slot: index into `p.globals`.
    globals: Vec<usize>,
    /// Per payload position of the current handler: field name, repr.
    payload: Vec<(String, Repr)>,
}

impl<'a, 'g> KernelCx<'a, 'g> {
    /// A kernel's context: its locals and its broadcast row.
    fn new(g: &'g mut Gen<'a>, k: &'g CKernel) -> R<Self> {
        let mut used = HashSet::new();
        let locals = (k.locals.iter())
            .map(|(name, ty)| Ok((sanitize(name, &mut used), Repr::of_ty(ty)?)))
            .collect::<R<_>>()?;
        Ok(KernelCx {
            g,
            local_names: &k.locals,
            locals,
            globals: k.reads_globals.clone(),
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
                    VPlace::Recv { snap: false } | VPlace::Body => format!("value.{field}"),
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
                if place == VPlace::Pull {
                    return err(format!(
                        "pull payload reads kernel local `{}` — pullability bug",
                        self.local_names[*slot].0
                    ));
                }
                let (field, repr) = &self.locals[*slot];
                Ok(TE::new(format!("l_{field}"), *repr))
            }
            CExpr::Global(slot) => Ok(self.g.global_te(self.globals[*slot])),
            CExpr::SelfId => Ok(TE::new(
                if place == VPlace::Pull {
                    "src.0"
                } else {
                    "self_id"
                },
                Repr::Node,
            )),
            CExpr::NumNodes => Ok(TE::new("(self.graph.num_nodes() as i64)", Repr::I64)),
            CExpr::NumEdges => Ok(TE::new("(self.graph.num_edges() as i64)", Repr::I64)),
            CExpr::PickRandom => Ok(TE::new(
                "({ let n = self.graph.num_nodes(); \
                 assert!(n > 0, \"PickRandom on an empty graph\"); self.rng.pick(n) })",
                Repr::Node,
            )),
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
                VPlace::Body => TE::new("(value.in_nbrs.len() as i64)", Repr::I64),
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
    fn emit_minstrs(&mut self, instrs: &[CMInstr], buf: &mut Buf, has_agg: bool) -> R<()> {
        for m in instrs {
            buf.line("if self.finished {");
            buf.line("    return;");
            buf.line("}");
            match m {
                CMInstr::Assign {
                    slot, op, value, ..
                } => {
                    let (field, repr) = self.g.global_fields[*slot].clone();
                    let target = format!("self.g_{field}");
                    self.emit_write(buf, &target, *op, value, VPlace::Body, repr)?;
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
                        .reduce_expr(*op, &format!("self.g_{field}"), &inc.s, grepr)?;
                    buf.line(&format!("self.g_{field} = {red};"));
                    buf.close("}");
                    buf.close("}");
                }
                CMInstr::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let c = self.cond(cond, VPlace::Body, "master If condition")?;
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
                    match (value, self.g.ret_repr) {
                        (Some(e), Some(repr)) => {
                            let te = self.expr(e, VPlace::Body, None)?;
                            let te = self.g.coerce_te(te, repr)?;
                            buf.line(&format!("self.ret = Some({});", te.s));
                        }
                        (Some(_), None) => {
                            return err("Return with a value in a procedure with no return type")
                        }
                        (None, Some(_)) => buf.line("self.ret = None;"),
                        (None, None) => {}
                    }
                    buf.line("self.finished = true;");
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
                CInstr::SendIdToNbrs => {
                    buf.line("ctx.send_to_nbrs(Msg::InNbr { sender: self_id });");
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

/// Own-property slots the body writes with `<=` (deferred to kernel end),
/// in first-write order.
fn collect_deferred(instrs: &[CInstr], out: &mut Vec<usize>) {
    for i in instrs {
        match i {
            CInstr::WriteOwn {
                prop,
                op: AssignOp::Defer,
                ..
            } if !out.contains(prop) => out.push(*prop),
            CInstr::If {
                then_branch,
                else_branch,
                ..
            } => {
                collect_deferred(then_branch, out);
                collect_deferred(else_branch, out);
            }
            _ => {}
        }
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
            b.line("    ctx: &mut VertexContext<'_, '_, Msg>,");
            b.line("    value: &mut VertexValue,");
            b.line("    messages: &[Msg],");
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
        if !kernel.recvs.is_empty() || kernel.stores_in_nbrs {
            b.open("if !messages.is_empty() {");
            if kernel.snapshot_needed {
                for (field, repr) in &cx.g.prop_fields {
                    b.line(&format!(
                        "let snap_{field}: {} = value.{field};",
                        repr.rust()
                    ));
                }
            }
            b.open("for msg in messages.iter() {");
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
                    b.line("continue;");
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
                            let Some((fname, frepr)) = cx.payload.first() else {
                                return err("StoreInNbr on a message with no payload");
                            };
                            if *frepr != Repr::Node {
                                return err("StoreInNbr payload is not a node id");
                            }
                            b.line(&format!("value.in_nbrs.push(p_{fname});"));
                        }
                    }
                    if guard.is_some() {
                        b.close("}");
                    }
                }
                b.close("}");
            }
            if kernel.stores_in_nbrs {
                b.open("Msg::InNbr { sender: p_sender } => {");
                b.line("value.in_nbrs.push(p_sender);");
                b.close("}");
            }
            b.line("_ => {}");
            b.close("}");
            b.close("}");
            b.close("}");
        }

        // ---- body phase ----
        let filter_te = (kernel.filter.as_ref())
            .map(|f| cx.cond(f, VPlace::Body, "vertex filter"))
            .transpose()?;

        let mut deferred = Vec::new();
        collect_deferred(&kernel.body, &mut deferred);
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

    /// Emits the `match self.cur_state` arms of `pull_message` for every
    /// `Recomputed`-pullable state. Returns `None` when no state needs one.
    fn emit_pull_arms(&mut self, lowered: &Lowered) -> R<Option<Buf>> {
        let mut b = Buf::new(3);
        let mut any = false;
        for (i, kernel) in lowered.kernels.iter().enumerate() {
            if !matches!(
                self.pullable[i],
                Pullability::Pullable {
                    edge_dependent: true
                }
            ) {
                continue;
            }
            any = true;
            let (Some(kernel), Some(site)) =
                (kernel, kernel.as_ref().and_then(|k| k.send_site.as_ref()))
            else {
                let sites = kernel
                    .as_ref()
                    .map_or(0, |k| kernel::nbr_send_sites(&k.body).len());
                return err(format!(
                    "state {i} is Recomputed-pullable but has {sites} send sites"
                ));
            };
            if site.tag == IN_NBRS_TAG {
                b.line(&format!("{i}usize => Msg::InNbr {{ sender: src.0 }},"));
            } else {
                let mut cx = KernelCx::new(self, kernel)?;
                let m =
                    cx.msg_literal(site.tag, &site.payload, VPlace::Pull, Some("edge.index()"))?;
                b.line(&format!("{i}usize => {m},"));
            }
        }
        Ok(any.then_some(b))
    }
}

// ---- whole-module assembly ----

fn repr_suffix(repr: Repr) -> &'static str {
    match repr {
        Repr::I64 => "i64",
        Repr::F64 => "f64",
        Repr::Bool => "bool",
        Repr::Node => "node",
        Repr::Edge => "edge",
    }
}

const ALL_REPRS: [Repr; 5] = [Repr::I64, Repr::F64, Repr::Bool, Repr::Node, Repr::Edge];

impl<'a> Gen<'a> {
    fn emit(mut self) -> R<String> {
        if self.p.states.is_empty() {
            return err("program has no states");
        }
        // Kernel emission first: it fills `agg_repr`, consulted when
        // printing master-side `FoldAgg`.
        let lowered = kernel::lower(self.p)?;
        let vertex_fns = self.emit_vertex_fns(&lowered)?;
        let master_fns = self.emit_master_state_fns(&lowered)?;
        let pull_arms = self.emit_pull_arms(&lowered)?;
        if matches!(
            self.struct_name.as_str(),
            "Msg" | "VertexValue" | "Graph" | "Value" | "PickRng"
        ) {
            self.struct_name.push_str("Prog");
        }
        let name = self.struct_name.clone();
        let p = self.p;

        let mut out = Buf::new(0);
        out.line(&format!(
            "//! @generated by `gm-core::rustgen` from the Green-Marl procedure `{}`.",
            p.name
        ));
        out.line("//! DO NOT EDIT: regenerate with `gmc emit-rust` (goldens: rerun the");
        out.line("//! `rustgen_golden` test with `GM_UPDATE_GOLDEN=1`).");
        out.line("#![allow(clippy::all)]");
        out.line("#![allow(dead_code, non_snake_case, unreachable_patterns, unused_assignments, unused_imports, unused_mut, unused_parens, unused_variables)]");
        out.line("");
        out.line("use gm_core::seqinterp::ArgValue;");
        out.line("use gm_core::value::Value;");
        out.line("use gm_graph::{EdgeId, Graph, NodeId};");
        out.line("use gm_interp::{CompiledOutcome, PickRng, RunError, TraceStep};");
        out.line("use gm_pregel::{");
        out.line("    ByteReader, CkptError, GlobalValue, MasterContext, MasterDecision,");
        out.line("    Persist, PregelConfig, PullMode, ReduceOp, VertexContext, VertexProgram,");
        out.line("};");
        out.line("use std::collections::HashMap;");
        out.line("");

        let flags: Vec<&str> = p
            .states
            .iter()
            .map(|s| if s.vertex.is_some() { "true" } else { "false" })
            .collect();
        out.line(&format!(
            "const IS_VERTEX_STATE: [bool; {}] = [{}];",
            p.states.len(),
            flags.join(", ")
        ));
        out.line("");

        self.emit_vertex_value(&mut out);
        self.emit_msg_enum(&mut out);
        self.emit_struct(&mut out, &name);

        out.open(&format!("impl {name}<'_> {{"));
        out.push_buf(&master_fns);
        out.line("");
        out.push_buf(&vertex_fns);
        out.close("}");
        out.line("");

        self.emit_trait_impl(&mut out, &name, &lowered, pull_arms.as_ref())?;
        out.line("");
        self.emit_run_fn(&mut out, &name)?;
        self.emit_helpers(&mut out);

        let mut s = out.s;
        while s.ends_with("\n\n") {
            s.pop();
        }
        Ok(s)
    }

    fn emit_vertex_value(&self, out: &mut Buf) {
        out.line("/// Per-vertex state: one native field per node property.");
        out.line("#[derive(Clone, Debug)]");
        out.open("pub struct VertexValue {");
        for (field, repr) in &self.prop_fields {
            out.line(&format!("pub {field}: {},", repr.rust()));
        }
        out.line("pub in_nbrs: Vec<u32>,");
        out.close("}");
        out.line("");
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
        let has_msgs = !self.msg_variants.is_empty() || self.p.uses_in_nbrs;
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
            if self.p.uses_in_nbrs {
                out.line("InNbr { sender: u32 },");
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
            if self.p.uses_in_nbrs {
                out.open("Msg::InNbr { sender } => {");
                out.line("255u8.persist(out);");
                out.line("sender.persist(out);");
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
            if self.p.uses_in_nbrs {
                out.line("255u8 => Msg::InNbr { sender: Persist::restore(r)? },");
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

    fn emit_struct(&self, out: &mut Buf, name: &str) {
        out.line("/// The compiled program: master-side state plus edge columns.");
        out.open(&format!("pub struct {name}<'a> {{"));
        out.line("graph: &'a Graph,");
        for (field, repr) in &self.edge_fields {
            out.line(&format!("ep_{field}: Vec<{}>,", repr.rust()));
        }
        for (field, repr) in &self.global_fields {
            out.line(&format!("g_{field}: {},", repr.rust()));
        }
        out.line("seed: u64,");
        out.line("rng: PickRng,");
        out.line("prev_state: Option<usize>,");
        out.line("cur_state: usize,");
        out.line("state_log: Vec<usize>,");
        if let Some(r) = self.ret_repr {
            out.line(&format!("ret: Option<{}>,", r.rust()));
        }
        out.line("finished: bool,");
        out.close("}");
        out.line("");
    }

    fn emit_trait_impl(
        &self,
        out: &mut Buf,
        name: &str,
        lowered: &Lowered,
        pull_arms: Option<&Buf>,
    ) -> R<()> {
        let p = self.p;
        let has_msgs = !self.msg_variants.is_empty() || p.uses_in_nbrs;
        out.open(&format!("impl VertexProgram for {name}<'_> {{"));
        out.line("type VertexValue = VertexValue;");
        out.line("type Message = Msg;");
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
            if p.uses_in_nbrs {
                out.line(&format!(
                    "Msg::InNbr {{ .. }} => {}u64,",
                    p.in_nbrs_message_bytes()
                ));
            }
            out.close("}");
        } else {
            out.line("match *m {}");
        }
        out.close("}");

        let combinable: Vec<(usize, AssignOp)> = p
            .combinable
            .iter()
            .copied()
            .enumerate()
            .filter_map(|(t, op)| op.map(|o| (t, o)))
            .collect();
        if !combinable.is_empty() {
            out.line("");
            out.open("fn has_combiner(&self) -> bool {");
            out.line("true");
            out.close("}");
            out.line("");
            out.open("fn combine(&self, a: &Msg, b: &Msg) -> Option<Msg> {");
            out.open("match (*a, *b) {");
            for &(t, op) in &combinable {
                let (variant, fields) = &self.msg_variants[t];
                if fields.len() != 1 {
                    return err(format!(
                        "combinable message {t} has {} payload fields",
                        fields.len()
                    ));
                }
                let (f, r) = &fields[0];
                let red = self.reduce_expr(op, "x", "y", *r)?;
                out.open(&format!(
                    "(Msg::{variant} {{ {f}: x }}, Msg::{variant} {{ {f}: y }}) => {{"
                ));
                out.line(&format!("Some(Msg::{variant} {{ {f}: {red} }})"));
                out.close("}");
            }
            out.line("_ => None,");
            out.close("}");
            out.close("}");
        }

        let any_pullable = self
            .pullable
            .iter()
            .any(|x| matches!(x, Pullability::Pullable { .. }));
        if any_pullable {
            out.line("");
            out.open("fn pull_supported(&self) -> bool {");
            out.line("true");
            out.close("}");
            out.line("");
            out.open("fn pull_mode(&self) -> PullMode {");
            out.open("match self.cur_state {");
            for (i, x) in self.pullable.iter().enumerate() {
                match x {
                    Pullability::Pullable {
                        edge_dependent: false,
                    } => out.line(&format!("{i}usize => PullMode::Captured,")),
                    Pullability::Pullable {
                        edge_dependent: true,
                    } => out.line(&format!("{i}usize => PullMode::Recomputed,")),
                    _ => {}
                }
            }
            out.line("_ => PullMode::Unsupported,");
            out.close("}");
            out.close("}");
        }
        if let Some(arms) = pull_arms {
            out.line("");
            out.line("fn pull_message(");
            out.line("    &self,");
            out.line("    graph: &Graph,");
            out.line("    src: NodeId,");
            out.line("    edge: EdgeId,");
            out.line("    src_value: &VertexValue,");
            out.open(") -> Msg {");
            out.open("match self.cur_state {");
            out.push_buf(arms);
            out.line("s => panic!(\"pull_message called in push-only state {s}\"),");
            out.close("}");
            out.close("}");
        }

        out.line("");
        out.open("fn master_compute(&mut self, ctx: &mut MasterContext<'_>) -> MasterDecision {");
        out.open("if self.finished {");
        out.line("return MasterDecision::Halt;");
        out.close("}");
        out.open("let mut current: usize = match self.prev_state {");
        out.line("None => 0,");
        out.open("Some(prev) => {");
        out.line("self.run_post(prev, Some(&*ctx));");
        out.open("if self.finished {");
        out.line("return MasterDecision::Halt;");
        out.close("}");
        out.open("match self.run_transition(prev) {");
        out.line("Some(next) => next,");
        out.line("None => return MasterDecision::Halt,");
        out.close("}");
        out.close("}");
        out.close("};");
        out.line("let mut steps: u64 = 0;");
        out.open("loop {");
        out.line("steps += 1;");
        out.open("assert!(");
        out.line("steps < 10_000_000,");
        out.line("\"master state machine did not reach a vertex state\"");
        out.close(");");
        out.line("self.run_master(current);");
        out.open("if self.finished {");
        out.line("return MasterDecision::Halt;");
        out.close("}");
        out.open("if IS_VERTEX_STATE[current] {");
        out.line("break;");
        out.close("}");
        out.line("self.run_post(current, None);");
        out.open("match self.run_transition(current) {");
        out.line("Some(next) => current = next,");
        out.line("None => return MasterDecision::Halt,");
        out.close("}");
        out.close("}");
        out.line("ctx.put_global(\"_state\", GlobalValue::Int(current as i64));");
        let broadcasting: Vec<(usize, &CKernel)> = (lowered.kernels.iter().enumerate())
            .filter_map(|(i, k)| Some((i, k.as_ref().filter(|k| !k.reads_globals.is_empty())?)))
            .collect();
        if !broadcasting.is_empty() {
            out.open("match current {");
            for (i, k) in broadcasting {
                out.open(&format!("{i}usize => {{"));
                for &gi in &k.reads_globals {
                    let orig = &p.globals[gi].0;
                    let te = self.global_te(gi);
                    out.line(&format!("ctx.put_global({orig:?}, {});", self.gv_wrap(&te)));
                }
                out.close("}");
            }
            out.line("_ => {}");
            out.close("}");
        }
        out.line("self.cur_state = current;");
        out.line("self.prev_state = Some(current);");
        out.line("self.state_log.push(current);");
        out.line("MasterDecision::Continue");
        out.close("}");

        out.line("");
        out.line("fn vertex_compute(");
        out.line("    &self,");
        out.line("    ctx: &mut VertexContext<'_, '_, Msg>,");
        out.line("    value: &mut VertexValue,");
        out.line("    messages: &[Msg],");
        out.open(") {");
        out.open("match self.cur_state {");
        for (i, s) in p.states.iter().enumerate() {
            if s.vertex.is_some() {
                out.line(&format!(
                    "{i}usize => self.vertex_{i}(ctx, value, messages),"
                ));
            }
        }
        out.line("_ => {}");
        out.close("}");
        out.close("}");

        let mut sorted_globals: Vec<usize> = (0..p.globals.len()).collect();
        sorted_globals.sort_by(|&x, &y| p.globals[x].0.cmp(&p.globals[y].0));
        out.line("");
        out.open("fn save_master_state(&self, out: &mut Vec<u8>) {");
        out.line("self.rng.draws().persist(out);");
        out.line("self.prev_state.map(|s| s as u64).persist(out);");
        out.line("self.finished.persist(out);");
        if self.ret_repr.is_some() {
            out.line("self.ret.is_some().persist(out);");
            out.open("if let Some(v) = self.ret {");
            out.line("v.persist(out);");
            out.close("}");
        }
        for &gi in &sorted_globals {
            out.line(&format!(
                "self.g_{}.persist(out);",
                self.global_fields[gi].0
            ));
        }
        out.line("self.state_log.len().persist(out);");
        out.open("for &s in &self.state_log {");
        out.line("(s as u64).persist(out);");
        out.close("}");
        out.close("}");
        out.line("");
        out.open(
            "fn restore_master_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CkptError> {",
        );
        out.line("let draws = u64::restore(r)?;");
        out.line("self.rng = PickRng::replay(self.seed, draws, self.graph.num_nodes());");
        out.line("let prev: Option<u64> = Persist::restore(r)?;");
        out.line("self.prev_state = prev.map(|s| s as usize);");
        out.line("self.finished = Persist::restore(r)?;");
        if self.ret_repr.is_some() {
            out.open("self.ret = if bool::restore(r)? {");
            out.line("Some(Persist::restore(r)?)");
            out.close("} else {");
            out.ind += 1;
            out.line("None");
            out.close("};");
        }
        for &gi in &sorted_globals {
            out.line(&format!(
                "self.g_{} = Persist::restore(r)?;",
                self.global_fields[gi].0
            ));
        }
        out.line("let n = usize::restore(r)?;");
        out.line("let mut log = Vec::with_capacity(n.min(1 << 20));");
        out.open("for _ in 0..n {");
        out.line("log.push(u64::restore(r)? as usize);");
        out.close("}");
        out.line("self.state_log = log;");
        out.line("Ok(())");
        out.close("}");
        out.close("}");
        Ok(())
    }

    fn emit_run_fn(&self, out: &mut Buf, name: &str) -> R<()> {
        let p = self.p;
        out.line("/// Entry point: argument conventions, error strings, and outcome shape");
        out.line("/// are identical to `gm_interp::run_compiled` for this program.");
        out.line("pub fn run(");
        out.line("    graph: &Graph,");
        out.line("    args: &HashMap<String, ArgValue>,");
        out.line("    seed: u64,");
        out.line("    config: &PregelConfig,");
        out.open(") -> Result<CompiledOutcome, RunError> {");
        for ((field, repr), (orig, _)) in self.prop_fields.iter().zip(&p.node_props) {
            let elem = format!("elem_{}", repr_suffix(*repr));
            out.open(&format!(
                "let col_{field}: Option<Vec<{}>> = match args.get({orig:?}) {{",
                repr.rust()
            ));
            out.open("Some(ArgValue::NodeProp(v)) => {");
            out.open("if v.len() != graph.num_nodes() as usize {");
            out.line(&format!(
                "return Err(RunError::BadArgument(\"node property `{orig}` has wrong length\".to_owned()));"
            ));
            out.close("}");
            out.line(&format!("Some(v.iter().map({elem}).collect())"));
            out.close("}");
            out.open("Some(_) => {");
            out.line(&format!(
                "return Err(RunError::BadArgument(\"`{orig}` must be a node property\".to_owned()));"
            ));
            out.close("}");
            out.line("None => None,");
            out.close("};");
        }
        for ((field, repr), (orig, _)) in self.edge_fields.iter().zip(&p.edge_props) {
            let elem = format!("elem_{}", repr_suffix(*repr));
            out.open(&format!(
                "let ep_{field}: Vec<{}> = match args.get({orig:?}) {{",
                repr.rust()
            ));
            out.open("Some(ArgValue::EdgeProp(v)) => {");
            out.open("if v.len() != graph.num_edges() as usize {");
            out.line(&format!(
                "return Err(RunError::BadArgument(\"edge property `{orig}` has wrong length\".to_owned()));"
            ));
            out.close("}");
            out.line(&format!("v.iter().map({elem}).collect()"));
            out.close("}");
            out.open("Some(_) => {");
            out.line(&format!(
                "return Err(RunError::BadArgument(\"`{orig}` must be an edge property\".to_owned()));"
            ));
            out.close("}");
            out.line(&format!(
                "None => vec![{}; graph.num_edges() as usize],",
                repr.default_expr()
            ));
            out.close("};");
        }
        for (field, repr) in &self.global_fields {
            out.line(&format!(
                "let mut g_{field}: {} = {};",
                repr.rust(),
                repr.default_expr()
            ));
        }
        for (pname, pty) in &p.scalar_params {
            let Some(gi) = p.globals.iter().position(|(g, _)| g == pname) else {
                return err(format!("scalar parameter `{pname}` is not a master global"));
            };
            let (field, grepr) = &self.global_fields[gi];
            let prepr = Repr::of_ty(pty)?;
            if prepr != *grepr {
                return err(format!(
                    "scalar parameter `{pname}` has type {pty} but its global is {}",
                    grepr.name()
                ));
            }
            out.open(&format!("match args.get({pname:?}) {{"));
            out.line(&format!(
                "Some(ArgValue::Scalar(v)) => g_{field} = scalar_{}(*v, \"{pty}\"),",
                repr_suffix(prepr)
            ));
            out.line(&format!(
                "Some(_) => return Err(RunError::BadArgument(\"`{pname}` must be a scalar\".to_owned())),"
            ));
            out.line(&format!(
                "None => return Err(RunError::BadArgument(\"missing scalar argument `{pname}`\".to_owned())),"
            ));
            out.close("}");
        }
        out.open(&format!("let mut prog = {name} {{"));
        out.line("graph,");
        for (field, _) in &self.edge_fields {
            out.line(&format!("ep_{field},"));
        }
        for (field, _) in &self.global_fields {
            out.line(&format!("g_{field},"));
        }
        out.line("seed,");
        out.line("rng: PickRng::seed_from_u64(seed),");
        out.line("prev_state: None,");
        out.line("cur_state: 0,");
        out.line("state_log: Vec::new(),");
        if self.ret_repr.is_some() {
            out.line("ret: None,");
        }
        out.line("finished: false,");
        out.close("};");
        out.open("let init = |n: NodeId| VertexValue {");
        for (field, repr) in &self.prop_fields {
            out.open(&format!("{field}: match &col_{field} {{"));
            out.line("Some(c) => c[n.index()],");
            out.line(&format!("None => {},", repr.default_expr()));
            out.close("},");
        }
        out.line("in_nbrs: Vec::new(),");
        out.close("};");
        out.line("let result = gm_pregel::run(graph, &mut prog, init, config)?;");
        out.line("let mut node_props: HashMap<String, Vec<Value>> = HashMap::new();");
        for ((field, repr), (orig, _)) in self.prop_fields.iter().zip(&p.node_props) {
            out.line(&format!(
                "node_props.insert({orig:?}.to_owned(), result.values.iter().map(|v| {}).collect());",
                self.value_wrap(&format!("v.{field}"), *repr)
            ));
        }
        out.line("let mut globals: HashMap<String, Value> = HashMap::new();");
        for ((field, repr), (orig, _)) in self.global_fields.iter().zip(&p.globals) {
            out.line(&format!(
                "globals.insert({orig:?}.to_owned(), {});",
                self.value_wrap(&format!("prog.g_{field}"), *repr)
            ));
        }
        out.line("let supersteps = &result.metrics.per_superstep;");
        out.open("let trace: Vec<TraceStep> = prog.state_log.iter().zip(supersteps).map(|(&state, m)| TraceStep {");
        out.line("state,");
        out.line("active_vertices: m.active_vertices,");
        out.line("messages_sent: m.messages_sent,");
        out.line("message_bytes: m.message_bytes,");
        out.close("}).collect();");
        out.open("Ok(CompiledOutcome {");
        match self.ret_repr {
            Some(r) => out.line(&format!("ret: prog.ret.map(Value::{}),", r.name())),
            None => out.line("ret: None,"),
        }
        out.line("node_props,");
        out.line("globals,");
        out.line("metrics: result.metrics,");
        out.line("trace,");
        out.close("})");
        out.close("}");
        out.line("");
        Ok(())
    }

    fn emit_helpers(&self, out: &mut Buf) {
        if self.uses_div {
            out.open("fn gm_div_i64(x: i64, y: i64) -> i64 {");
            out.open("if y == 0 {");
            out.line("panic!(\"integer division by zero\");");
            out.close("}");
            out.line("x / y");
            out.close("}");
            out.line("");
        }
        if self.uses_mod {
            out.open("fn gm_mod_i64(x: i64, y: i64) -> i64 {");
            out.open("if y == 0 {");
            out.line("panic!(\"integer modulo by zero\");");
            out.close("}");
            out.line("x % y");
            out.close("}");
            out.line("");
        }
        let mut elem_needed: Vec<Repr> = Vec::new();
        for (_, r) in self.prop_fields.iter().chain(&self.edge_fields) {
            if !elem_needed.contains(r) {
                elem_needed.push(*r);
            }
        }
        for repr in ALL_REPRS {
            if elem_needed.contains(&repr) {
                self.emit_elem_helper(out, repr);
            }
        }
        let mut scalar_needed: Vec<Repr> = Vec::new();
        for (_, ty) in &self.p.scalar_params {
            if let Ok(r) = Repr::of_ty(ty) {
                if !scalar_needed.contains(&r) {
                    scalar_needed.push(r);
                }
            }
        }
        for repr in ALL_REPRS {
            if scalar_needed.contains(&repr) {
                self.emit_scalar_helper(out, repr);
            }
        }
    }

    fn emit_elem_helper(&self, out: &mut Buf, repr: Repr) {
        out.open(&format!(
            "fn elem_{}(v: &Value) -> {} {{",
            repr_suffix(repr),
            repr.rust()
        ));
        out.open("match v {");
        match repr {
            Repr::I64 => out.line("Value::Int(x) => *x,"),
            Repr::F64 => {
                out.line("Value::Int(x) => *x as f64,");
                out.line("Value::Double(x) => *x,");
            }
            Repr::Bool => out.line("Value::Bool(x) => *x,"),
            Repr::Node => out.line("Value::Node(x) => *x,"),
            Repr::Edge => out.line("Value::Edge(x) => *x,"),
        }
        out.line(&format!(
            "other => panic!(\"expected {} column element, got {{other:?}}\"),",
            repr.name()
        ));
        out.close("}");
        out.close("}");
        out.line("");
    }

    fn emit_scalar_helper(&self, out: &mut Buf, repr: Repr) {
        out.open(&format!(
            "fn scalar_{}(v: Value, ty: &str) -> {} {{",
            repr_suffix(repr),
            repr.rust()
        ));
        out.open("match v {");
        match repr {
            Repr::I64 => {
                out.line("Value::Int(x) => x,");
                out.line("Value::Double(x) => x as i64,");
            }
            Repr::F64 => {
                out.line("Value::Int(x) => x as f64,");
                out.line("Value::Double(x) => x,");
            }
            Repr::Bool => out.line("Value::Bool(x) => x,"),
            Repr::Node => out.line("Value::Node(x) => x,"),
            Repr::Edge => out.line("Value::Edge(x) => x,"),
        }
        out.line("other => panic!(\"cannot coerce {other:?} to {ty}\"),");
        out.close("}");
        out.close("}");
        out.line("");
    }
}

/// Compiles a verified [`PregelProgram`] into the source text of a
/// standalone Rust module implementing the runtime's `VertexProgram`
/// trait natively — monomorphized message enum, native property fields,
/// inlined combiners — plus a `run` entry point whose argument handling
/// and outcome shape mirror `gm_interp::run_compiled` bit for bit.
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
        assert!(rs.contains("impl VertexProgram for F<'_>"), "{rs}");
        assert!(rs.contains("pub fn run("), "{rs}");
        assert!(rs.contains("impl Persist for VertexValue"), "{rs}");
        assert!(rs.contains("impl Persist for Msg"), "{rs}");
    }

    #[test]
    fn emission_is_deterministic() {
        assert_eq!(rust_of(NBR_SUM), rust_of(NBR_SUM));
    }

    #[test]
    fn combiner_is_inlined_for_reducible_messages() {
        let options = CompileOptions {
            combiners: true,
            ..Default::default()
        };
        let compiled = compile(NBR_SUM, &options).expect("compiles");
        let rs = emit_rust(&compiled.program).expect("emits");
        assert!(rs.contains("fn has_combiner"), "{rs}");
        assert!(rs.contains("wrapping_add"), "{rs}");
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
        assert!(rs.contains("ctx.put_global(\"K\""), "{rs}");
        assert!(rs.contains("ctx.reduce_global(\"s\""), "{rs}");
        assert!(rs.contains("missing scalar argument `K`"), "{rs}");
        assert!(rs.contains("scalar_i64("), "{rs}");
        assert!(rs.contains("ret: prog.ret.map(Value::Int),"), "{rs}");
    }
}
