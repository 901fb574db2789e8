//! GPS-style Java source emission.
//!
//! The paper's compiler emits Java for the GPS framework; this backend
//! prints the same program shape from the state machine as
//! [`crate::kernel::lower`] resolves it, the form [`crate::rustgen`] prints
//! too: a serializable message class, a vertex-value class, a
//! `vertex.compute()` with a per-state switch, and a `master.compute()`
//! managing the state machine and the global objects map. Slots print as
//! the names the program gives them: `PregelProgram`'s columns, a
//! kernel's locals and a handler's payload fields. The §4.3 in-neighbor
//! preamble prints as the paper's code: its message is the tag whose
//! handler stores in-neighbors ([`Lowered::in_nbr_tag`]), which gets no
//! `GMMessage` case, sends as `sendToNbrs` and is collected into
//! `in_nbrs`. It exists for the Table 2 lines-of-code comparison and for
//! human inspection of generated code — execution happens through the
//! `gm-interp` crate.

use crate::ast::{AssignOp, BinOp, UnOp};
use crate::kernel::{self, CAction, CExpr, CInstr, CKernel, CMInstr, Lowered};
use crate::pir::*;
use crate::types::Ty;
use crate::value::{Value, NIL_NODE};
use std::fmt::Write;

/// Renders the whole GPS-style Java program.
///
/// # Errors
///
/// The lowering's error when a name does not resolve; verified PIR always
/// lowers.
pub fn emit_java(p: &PregelProgram) -> Result<String, String> {
    let lowered = kernel::lower(p)?;
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(
        w,
        "// Generated by the Green-Marl compiler from procedure `{}`.",
        p.name
    );
    let _ = writeln!(
        w,
        "// {} states, {} vertex kernels, {} message types.",
        p.states.len(),
        p.num_vertex_kernels(),
        p.num_message_types()
    );
    let _ = writeln!(w, "package gps.generated;\n");
    let _ = writeln!(
        w,
        "import gps.graph.*;\nimport gps.globalobjects.*;\nimport gps.writable.*;\n"
    );

    emit_message_class(w, p, lowered.in_nbr_tag());
    emit_vertex_value_class(w, p);
    emit_vertex_class(w, p, &lowered);
    emit_master_class(w, p, &lowered);
    Ok(out)
}

/// Counts non-blank lines, the paper's LoC convention for Table 2.
pub fn count_loc(source: &str) -> usize {
    source.lines().filter(|l| !l.trim().is_empty()).count()
}

fn java_ty(ty: &Ty) -> &'static str {
    match ty {
        Ty::Int => "int",
        Ty::Long => "long",
        Ty::Float => "float",
        Ty::Double => "double",
        Ty::Bool => "boolean",
        Ty::Node => "int",
        Ty::Edge => "int",
        _ => "Object",
    }
}

/// `GMMessage`: the tag byte and every field of every layout but the
/// preamble's, whose `sender` field prints as the §4.3 code.
fn emit_message_class(w: &mut String, p: &PregelProgram, preamble: Option<u8>) {
    let _ = writeln!(w, "class GMMessage extends MessageWritable {{");
    if p.needs_tag_byte() {
        let _ = writeln!(w, "    byte tag;");
    }
    let layouts: Vec<&MessageLayout> = (p.messages.iter())
        .filter(|m| Some(m.tag) != preamble)
        .collect();
    for m in &layouts {
        for (name, ty) in &m.fields {
            let _ = writeln!(
                w,
                "    {} {};  // tag {}",
                java_ty(ty),
                field_ident(name),
                m.tag
            );
        }
    }
    emit_serializer(w, p, &layouts, "write", "buf.writeByte(tag);", |name, _| {
        format!("buf.write({name});")
    });
    emit_serializer(
        w,
        p,
        &layouts,
        "read",
        "tag = buf.readByte();",
        |name, ty| format!("{name} = buf.read{}();", reader_suffix(ty)),
    );
    let _ = writeln!(w, "}}\n");
}

/// `GMMessage.write` or `.read`: the tag byte and a switch over the tags
/// when there are several, then one `field` line per payload field.
fn emit_serializer(
    w: &mut String,
    p: &PregelProgram,
    layouts: &[&MessageLayout],
    method: &str,
    tag_line: &str,
    field: impl Fn(String, &Ty) -> String,
) {
    let _ = writeln!(w, "    public void {method}(IoBuffer buf) {{");
    let tagged = p.needs_tag_byte();
    if tagged {
        let _ = writeln!(w, "        {tag_line}");
        let _ = writeln!(w, "        switch (tag) {{");
    }
    let pad = if tagged { "            " } else { "        " };
    for m in layouts {
        if tagged {
            let _ = writeln!(w, "        case {}:", m.tag);
        }
        for (name, ty) in &m.fields {
            let _ = writeln!(w, "{pad}{}", field(field_ident(name), ty));
        }
        if tagged {
            let _ = writeln!(w, "            break;");
        }
    }
    if tagged {
        let _ = writeln!(w, "        }}");
    }
    let _ = writeln!(w, "    }}");
}

fn reader_suffix(ty: &Ty) -> &'static str {
    match ty {
        Ty::Int | Ty::Node | Ty::Edge => "Int",
        Ty::Long => "Long",
        Ty::Float => "Float",
        Ty::Double => "Double",
        Ty::Bool => "Boolean",
        _ => "Object",
    }
}

fn field_ident(name: &str) -> String {
    name.trim_start_matches('_').replace("__", "_")
}

fn emit_vertex_value_class(w: &mut String, p: &PregelProgram) {
    let _ = writeln!(w, "class GMVertexValue extends VertexValueWritable {{");
    for (name, ty) in &p.node_props {
        let _ = writeln!(w, "    {} {};", java_ty(ty), name);
    }
    if p.uses_in_nbrs {
        let _ = writeln!(w, "    int[] in_nbrs;");
    }
    let _ = writeln!(w, "}}\n");
}

fn emit_vertex_class(w: &mut String, p: &PregelProgram, lowered: &Lowered) {
    let _ = writeln!(
        w,
        "class GMVertex extends Vertex<GMVertexValue, GMMessage> {{"
    );
    let _ = writeln!(
        w,
        "    public void compute(Iterable<GMMessage> messages, int superstepNo) {{"
    );
    let _ = writeln!(
        w,
        "        int _state = ((IntOverwriteGlobal) getGlobal(\"_state\")).getValue();"
    );
    let _ = writeln!(w, "        switch (_state) {{");
    let preamble = lowered.in_nbr_tag();
    for (i, k) in lowered.kernels.iter().enumerate() {
        if k.is_some() {
            let _ = writeln!(w, "        case {i}: do_state_{i}(messages); break;");
        }
    }
    let _ = writeln!(w, "        }}");
    let _ = writeln!(w, "    }}");

    for (i, k) in lowered.kernels.iter().enumerate() {
        let Some(k) = k else { continue };
        let _ = writeln!(
            w,
            "    private void do_state_{i}(Iterable<GMMessage> messages) {{"
        );
        for r in &k.recvs {
            // The preamble's collecting state receives nothing else.
            if Some(r.tag) == preamble {
                let _ = writeln!(
                    w,
                    "        // build the incoming-neighbor array (\u{a7}4.3)"
                );
                let _ = writeln!(w, "        int _i = 0;");
                let _ = writeln!(
                    w,
                    "        getValue().in_nbrs = new int[numMessages(messages)];"
                );
                let _ = writeln!(w, "        for (GMMessage msg : messages) {{");
                let _ = writeln!(w, "            getValue().in_nbrs[_i++] = msg.sender;");
                let _ = writeln!(w, "        }}");
                continue;
            }
            let names = Names {
                fields: &p.messages[r.tag as usize].fields,
                ..Names::kernel(p, preamble, k)
            };
            let _ = writeln!(w, "        for (GMMessage msg : messages) {{");
            if p.needs_tag_byte() {
                let _ = writeln!(w, "            if (msg.tag != {}) continue;", r.tag);
            }
            if let Some(g) = &r.guard {
                let _ = writeln!(w, "            if (!({})) continue;", names.expr(g));
            }
            for step in &r.steps {
                let line = match &step.action {
                    CAction::WriteOwn {
                        prop, op, value, ..
                    } => assign_java(&names.prop(*prop), *op, &names.expr(value)),
                    CAction::ReduceGlobal { name, op, value } => {
                        put_global(name, &names.expr(value), *op)
                    }
                    CAction::StoreInNbr => unreachable!("only the preamble stores in-neighbors"),
                };
                match &step.guard {
                    Some(g) => {
                        let _ = writeln!(w, "            if ({}) {{ {line} }}", names.expr(g));
                    }
                    None => {
                        let _ = writeln!(w, "            {line}");
                    }
                }
            }
            let _ = writeln!(w, "        }}");
        }
        let names = Names::kernel(p, preamble, k);
        match &k.filter {
            Some(f) => {
                let _ = writeln!(w, "        if ({}) {{", names.expr(f));
                names.instrs(w, &k.body, 3);
                let _ = writeln!(w, "        }}");
            }
            None => names.instrs(w, &k.body, 2),
        }
        let _ = writeln!(w, "    }}");
    }
    let _ = writeln!(w, "}}\n");
}

fn put_global(name: &str, value: &str, op: AssignOp) -> String {
    let reduce = match op {
        AssignOp::Add => "Sum",
        AssignOp::Min => "Min",
        AssignOp::Max => "Max",
        AssignOp::Or => "BoolOr",
        AssignOp::And => "BoolAnd",
        AssignOp::Mul => "Product",
        _ => "Overwrite",
    };
    format!("putGlobal(\"{name}\", {value}, \"{reduce}\");")
}

fn assign_java(target: &str, op: AssignOp, value: &str) -> String {
    match op {
        AssignOp::Assign | AssignOp::Defer => format!("{target} = {value};"),
        AssignOp::Add => format!("{target} += {value};"),
        AssignOp::Sub => format!("{target} -= {value};"),
        AssignOp::Mul => format!("{target} *= {value};"),
        AssignOp::Min => format!("{target} = Math.min({target}, {value});"),
        AssignOp::Max => format!("{target} = Math.max({target}, {value});"),
        AssignOp::And => format!("{target} = {target} && {value};"),
        AssignOp::Or => format!("{target} = {target} || {value};"),
    }
}

fn emit_master_class(w: &mut String, p: &PregelProgram, lowered: &Lowered) {
    let _ = writeln!(w, "class GMMaster extends Master {{");
    let _ = writeln!(w, "    int _state = 0;");
    for (name, ty) in &p.globals {
        let _ = writeln!(w, "    {} {};", java_ty(ty), name);
    }
    if let Some(ret) = &p.ret {
        let _ = writeln!(w, "    {} _return;", java_ty(ret));
    }
    let names = Names {
        p,
        preamble: None,
        locals: &[],
        fields: &[],
    };
    let _ = writeln!(w, "    public void compute(int superstepNo) {{");
    let _ = writeln!(w, "        while (true) {{");
    let _ = writeln!(w, "            switch (_state) {{");
    for (i, (m, k)) in lowered.masters.iter().zip(&lowered.kernels).enumerate() {
        let _ = writeln!(w, "            case {i}:");
        let _ = writeln!(w, "                do_state_{i}();");
        match &m.transition {
            Transition::Goto(t) => {
                let _ = writeln!(w, "                _state = {t};");
            }
            Transition::Branch {
                cond,
                then_to,
                else_to,
            } => {
                let _ = writeln!(
                    w,
                    "                _state = ({}) ? {then_to} : {else_to};",
                    names.expr(cond)
                );
            }
            Transition::Halt => {
                let _ = writeln!(w, "                haltComputation();");
                let _ = writeln!(w, "                return;");
            }
        }
        if k.is_some() {
            let _ = writeln!(
                w,
                "                putGlobal(\"_state\", new IntOverwriteGlobal({i}));"
            );
            let _ = writeln!(
                w,
                "                return; // run the vertex phase of state {i}"
            );
        } else {
            let _ = writeln!(w, "                break; // master-only state, keep going");
        }
    }
    let _ = writeln!(w, "            }}");
    let _ = writeln!(w, "        }}");
    let _ = writeln!(w, "    }}");

    for (i, (m, k)) in lowered.masters.iter().zip(&lowered.kernels).enumerate() {
        let _ = writeln!(w, "    private void do_state_{i}() {{");
        names.minstrs(w, &m.post, 2);
        names.minstrs(w, &m.master, 2);
        // The broadcast, in name order.
        let mut broadcast: Vec<&str> = k
            .iter()
            .flat_map(|k| &k.reads_globals)
            .map(|&g| p.globals[g].0.as_str())
            .collect();
        broadcast.sort_unstable();
        for g in broadcast {
            let _ = writeln!(
                w,
                "        putGlobal(\"{g}\", {g});  // broadcast for the vertex phase"
            );
        }
        let _ = writeln!(w, "    }}");
    }
    let _ = writeln!(w, "}}");
}

/// What a lowered expression's slots are called where it is printed.
#[derive(Clone, Copy)]
struct Names<'a> {
    p: &'a PregelProgram,
    /// The preamble's tag, whose send prints as the §4.3 code.
    preamble: Option<u8>,
    /// The kernel's locals (none in master code).
    locals: &'a [(String, Ty)],
    /// The current handler's payload fields (none outside a handler).
    fields: &'a [(String, Ty)],
}

impl<'a> Names<'a> {
    fn kernel(p: &'a PregelProgram, preamble: Option<u8>, k: &'a CKernel) -> Self {
        Names {
            p,
            preamble,
            locals: &k.locals,
            fields: &[],
        }
    }

    fn prop(&self, slot: usize) -> String {
        format!("getValue().{}", self.p.node_props[slot].0)
    }

    fn instrs(&self, w: &mut String, body: &[CInstr], level: usize) {
        let pad = "    ".repeat(level);
        for i in body {
            match i {
                CInstr::Local {
                    slot,
                    op,
                    value,
                    ty,
                } => {
                    let name = &self.locals[*slot].0;
                    let value = self.expr(value);
                    let _ = match op {
                        AssignOp::Assign => writeln!(w, "{pad}{} {name} = {value};", java_ty(ty)),
                        _ => writeln!(w, "{pad}{}", assign_java(name, *op, &value)),
                    };
                }
                CInstr::WriteOwn {
                    prop, op, value, ..
                } => {
                    let line = assign_java(&self.prop(*prop), *op, &self.expr(value));
                    let _ = writeln!(w, "{pad}{line}");
                }
                CInstr::ReduceGlobal { name, op, value } => {
                    let _ = writeln!(w, "{pad}{}", put_global(name, &self.expr(value), *op));
                }
                CInstr::SendToNbrs { tag, .. } if Some(*tag) == self.preamble => {
                    let _ = writeln!(
                        w,
                        "{pad}// \u{a7}4.3: send own id so receivers learn their in-neighbors"
                    );
                    let _ = writeln!(w, "{pad}GMMessage m = new GMMessage();");
                    let _ = writeln!(w, "{pad}m.sender = getId();");
                    let _ = writeln!(w, "{pad}sendToNbrs(m);");
                }
                CInstr::SendToNbrs { tag, payload, .. } => {
                    let open = "for (Edge edge : getOutgoingEdges()) {";
                    self.send(w, &pad, open, *tag, payload, "edge.getTargetId()");
                }
                CInstr::SendToInNbrs { tag, payload } => {
                    let open = "for (int nbr : getValue().in_nbrs) {";
                    self.send(w, &pad, open, *tag, payload, "nbr");
                }
                CInstr::SendTo { dst, tag, payload } => {
                    self.send(w, &pad, "{", *tag, payload, &self.expr(dst));
                }
                CInstr::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let _ = writeln!(w, "{pad}if ({}) {{", self.expr(cond));
                    self.instrs(w, then_branch, level + 1);
                    if !else_branch.is_empty() {
                        let _ = writeln!(w, "{pad}}} else {{");
                        self.instrs(w, else_branch, level + 1);
                    }
                    let _ = writeln!(w, "{pad}}}");
                }
            }
        }
    }

    /// One message per destination in the block `open` starts.
    fn send(&self, w: &mut String, pad: &str, open: &str, tag: u8, payload: &[CExpr], dst: &str) {
        let _ = writeln!(w, "{pad}{open}");
        let _ = writeln!(w, "{pad}    GMMessage m = new GMMessage();");
        if self.p.needs_tag_byte() {
            let _ = writeln!(w, "{pad}    m.tag = {tag};");
        }
        for (e, (field, _)) in payload.iter().zip(&self.p.messages[tag as usize].fields) {
            let _ = writeln!(w, "{pad}    m.{} = {};", field_ident(field), self.expr(e));
        }
        let _ = writeln!(w, "{pad}    sendMessage({dst}, m);");
        let _ = writeln!(w, "{pad}}}");
    }

    fn minstrs(&self, w: &mut String, body: &[CMInstr], level: usize) {
        let pad = "    ".repeat(level);
        for m in body {
            match m {
                CMInstr::Assign {
                    slot, op, value, ..
                } => {
                    let line = assign_java(&self.p.globals[*slot].0, *op, &self.expr(value));
                    let _ = writeln!(w, "{pad}{line}");
                }
                CMInstr::FoldAgg { slot, op, agg_key } => {
                    let rhs = format!("getAgg(\"{agg_key}\")");
                    let line = assign_java(&self.p.globals[*slot].0, *op, &rhs);
                    let _ = writeln!(w, "{pad}if (hasAgg(\"{agg_key}\")) {{ {line} }}");
                }
                CMInstr::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let _ = writeln!(w, "{pad}if ({}) {{", self.expr(cond));
                    self.minstrs(w, then_branch, level + 1);
                    if !else_branch.is_empty() {
                        let _ = writeln!(w, "{pad}}} else {{");
                        self.minstrs(w, else_branch, level + 1);
                    }
                    let _ = writeln!(w, "{pad}}}");
                }
                CMInstr::SetReturn { value, .. } => {
                    let _ = match value {
                        Some(e) => writeln!(w, "{pad}_return = {};", self.expr(e)),
                        None => writeln!(w, "{pad}// return (void)"),
                    };
                }
            }
        }
    }

    fn expr(&self, e: &CExpr) -> String {
        match e {
            CExpr::Const(v) => constant(*v),
            CExpr::Prop(slot) => self.prop(*slot),
            CExpr::EdgeProp(slot) => format!("edge.{}", self.p.edge_props[*slot].0),
            CExpr::Payload(i) => format!("msg.{}", field_ident(&self.fields[*i].0)),
            CExpr::Local(slot) => self.locals[*slot].0.clone(),
            CExpr::Global(slot) => self.p.globals[*slot].0.clone(),
            CExpr::SelfId => "getId()".into(),
            CExpr::OutDegree => "getNumOutEdges()".into(),
            CExpr::InDegree => "getValue().in_nbrs.length".into(),
            CExpr::NumNodes => "getTotalNumVertices()".into(),
            CExpr::NumEdges => "getTotalNumEdges()".into(),
            CExpr::PickRandom => "pickRandomVertex()".into(),
            CExpr::Un(op, inner) => {
                let i = self.expr(inner);
                match op {
                    UnOp::Neg => format!("(-{i})"),
                    UnOp::Not => format!("(!{i})"),
                    UnOp::Abs => format!("Math.abs({i})"),
                }
            }
            CExpr::Bin(op, lhs, rhs) => {
                let o = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Mod => "%",
                    BinOp::Eq => "==",
                    BinOp::Ne => "!=",
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    BinOp::Ge => ">=",
                    BinOp::And => "&&",
                    BinOp::Or => "||",
                };
                format!("({} {o} {})", self.expr(lhs), self.expr(rhs))
            }
            CExpr::Ternary {
                cond,
                then_val,
                else_val,
                ..
            } => format!(
                "(({}) ? {} : {})",
                self.expr(cond),
                self.expr(then_val),
                self.expr(else_val)
            ),
        }
    }
}

/// A literal; the lowering has folded `INF` into the extreme value of its
/// type and `NIL` into the nil node.
fn constant(v: Value) -> String {
    match v {
        Value::Int(i64::MAX) => "Integer.MAX_VALUE".into(),
        Value::Int(i64::MIN) => "Integer.MIN_VALUE".into(),
        Value::Double(f64::INFINITY) => "Double.POSITIVE_INFINITY".into(),
        Value::Double(f64::NEG_INFINITY) => "Double.NEGATIVE_INFINITY".into(),
        Value::Double(d) if d.fract() == 0.0 => format!("{d:.1}"),
        Value::Node(NIL_NODE) => "-1".into(),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile, CompileOptions};

    fn java_of(src: &str) -> String {
        let compiled = compile(src, &CompileOptions::default()).expect("compiles");
        emit_java(&compiled.program).expect("emits")
    }

    #[test]
    fn emits_all_four_classes() {
        let java = java_of(
            "Procedure f(G: Graph, foo: N_P<Int>, bar: N_P<Int>) {
                Foreach (n: G.Nodes) {
                    Foreach (t: n.Nbrs) {
                        t.foo += n.bar;
                    }
                }
            }",
        );
        assert!(java.contains("class GMMessage"), "{java}");
        assert!(java.contains("class GMVertexValue"));
        assert!(java.contains("class GMVertex"));
        assert!(java.contains("class GMMaster"));
        assert!(java.contains("sendMessage("));
        assert!(java.contains("do_state_0"));
    }

    #[test]
    fn master_broadcasts_read_globals() {
        let java = java_of(
            "Procedure f(G: Graph, age: N_P<Int>, K: Int) : Int {
                Int s = 0;
                Foreach (n: G.Nodes)(n.age > K) {
                    s += n.age;
                }
                Return s;
            }",
        );
        assert!(java.contains("putGlobal(\"K\""), "{java}");
        assert!(java.contains("hasAgg(\"s\")"), "{java}");
        assert!(java.contains("_return"), "{java}");
    }

    #[test]
    fn loc_counter_ignores_blanks() {
        assert_eq!(count_loc("a\n\n  \nb\n"), 2);
    }

    #[test]
    fn generated_loc_is_substantial() {
        // The paper's point: the generated GPS program dwarfs the DSL
        // source. A simple two-line kernel should still produce >60 LoC of
        // Java scaffolding.
        let java = java_of(
            "Procedure f(G: Graph, foo: N_P<Int>, bar: N_P<Int>) {
                Foreach (n: G.Nodes) {
                    Foreach (t: n.Nbrs) {
                        t.foo += n.bar;
                    }
                }
            }",
        );
        assert!(count_loc(&java) > 60, "only {} LoC", count_loc(&java));
    }

    #[test]
    fn tagged_messages_serialize_by_tag() {
        let java = java_of(
            "Procedure f(G: Graph, a: N_P<Int>, b: N_P<Int>, m: N_P<Node>) {
                Foreach (n: G.Nodes) {
                    If (n.a > 0) {
                        Foreach (t: n.Nbrs) {
                            t.a += 1;
                        }
                    } Else {
                        Foreach (t: n.Nbrs) {
                            t.b += n.b;
                        }
                    }
                }
            }",
        );
        assert!(java.contains("byte tag;"), "{java}");
        assert!(
            java.contains("m.tag = 0") || java.contains("m.tag = 1"),
            "{java}"
        );
    }
}
