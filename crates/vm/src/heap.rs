//! The shared object heap.
//!
//! Objects are never garbage-collected: the synthesizer (paper §3.4) keeps
//! references to objects collected from suspended seed-test executions, so
//! everything stays live for the duration of one [`Machine`](crate::Machine).
//!
//! ## Copy-on-write marks
//!
//! The capture walk (`narada_detect::walk`) rewinds a heap to a *mark* thousands of
//! times per test, so a full heap clone per probe would dominate. Instead
//! the heap keeps an object-granularity undo log: every object carries an
//! epoch tag, [`Heap::mark`] opens a new epoch, and the first mutation of
//! an object inside an epoch (all mutations funnel through
//! [`Heap::object_mut`]) pushes its pre-image onto the log.
//! [`Heap::rewind`] pops the log back to the mark, restores the
//! pre-images, truncates objects allocated since, and opens a fresh epoch
//! so the next probe re-logs. Until the first mark the log is off
//! (`epoch == 0`) and `object_mut` costs one predictable branch.

use crate::value::{ObjId, Value};
use narada_lang::hir::{ClassId, FieldId, Program, Ty};
use std::collections::HashMap;

/// Payload of one heap object.
#[derive(Debug, Clone)]
pub enum ObjectData {
    /// A class instance with one slot per field (including inherited).
    Instance {
        /// Runtime class.
        class: ClassId,
        /// Field slots, ordered as `Program::fields_of(class)`.
        fields: Vec<Value>,
    },
    /// An array.
    Array {
        /// Element type.
        elem: Ty,
        /// Element slots.
        data: Vec<Value>,
    },
}

/// A heap object: payload plus its monitor.
#[derive(Debug, Clone)]
pub struct Object {
    /// The payload.
    pub data: ObjectData,
    /// Monitor owner (a thread index), if locked.
    pub(crate) lock_owner: Option<u32>,
    /// Re-entrancy count.
    pub(crate) lock_count: u32,
    /// Undo-log epoch this object was last logged (or allocated) in; `0`
    /// everywhere until the first [`Heap::mark`].
    epoch: u64,
}

impl Object {
    /// The runtime class, for instances.
    pub fn class(&self) -> Option<ClassId> {
        match &self.data {
            ObjectData::Instance { class, .. } => Some(*class),
            ObjectData::Array { .. } => None,
        }
    }

    /// True if some thread currently owns this object's monitor.
    pub fn is_locked(&self) -> bool {
        self.lock_owner.is_some()
    }
}

/// The heap: an arena of objects plus per-class field layouts.
#[derive(Debug, Clone)]
pub struct Heap {
    objects: Vec<Object>,
    /// Per-class map field → slot index (includes inherited fields).
    layouts: Vec<HashMap<FieldId, usize>>,
    /// Current undo-log epoch; `0` means no mark has ever been taken and
    /// the log is off.
    epoch: u64,
    /// Copy-on-write pre-images: `(object index, state before its first
    /// mutation in the epoch it was logged in)`.
    undo: Vec<(u32, Object)>,
}

/// A point in a heap's history that [`Heap::rewind`] can restore,
/// returned by [`Heap::mark`]. Rewinding does not consume the mark: the
/// fork explorer rewinds to the same mark once per probe.
#[derive(Debug, Clone, Copy)]
pub struct HeapMark {
    undo_len: usize,
    objects_len: usize,
}

impl Heap {
    /// Creates an empty heap with layouts derived from `prog`.
    pub fn new(prog: &Program) -> Self {
        let layouts = prog
            .classes
            .iter()
            .map(|c| {
                c.all_fields
                    .iter()
                    .enumerate()
                    .map(|(i, &f)| (f, i))
                    .collect()
            })
            .collect();
        Heap {
            objects: Vec::new(),
            layouts,
            epoch: 0,
            undo: Vec::new(),
        }
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when no objects have been allocated.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Allocates an instance of `class` with default field values
    /// (`0`, `false`, `null`).
    pub fn alloc_instance(&mut self, prog: &Program, class: ClassId) -> ObjId {
        let nfields = prog.fields_of(class).len();
        let fields = prog
            .fields_of(class)
            .iter()
            .map(|&f| default_value(&prog.field(f).ty))
            .collect::<Vec<_>>();
        debug_assert_eq!(fields.len(), nfields);
        self.push(Object {
            data: ObjectData::Instance { class, fields },
            lock_owner: None,
            lock_count: 0,
            epoch: self.epoch,
        })
    }

    /// Allocates an array of `len` default-valued elements.
    pub fn alloc_array(&mut self, elem: Ty, len: usize) -> ObjId {
        let fill = default_value(&elem);
        self.push(Object {
            data: ObjectData::Array {
                elem,
                data: vec![fill; len],
            },
            lock_owner: None,
            lock_count: 0,
            epoch: self.epoch,
        })
    }

    fn push(&mut self, obj: Object) -> ObjId {
        let id = ObjId(self.objects.len() as u32);
        self.objects.push(obj);
        id
    }

    // ------------------------------------------------------------------
    // Copy-on-write marks (see the module docs)
    // ------------------------------------------------------------------

    /// Opens a new undo epoch and returns a mark [`Heap::rewind`] can
    /// restore. Marks nest: rewinding to an outer mark also undoes
    /// everything an inner mark saw. Once the first mark is taken the
    /// undo log stays armed for the heap's lifetime; mutation cost is one
    /// pre-image clone per object per epoch.
    pub fn mark(&mut self) -> HeapMark {
        self.epoch += 1;
        HeapMark {
            undo_len: self.undo.len(),
            objects_len: self.objects.len(),
        }
    }

    /// Restores the heap to the state captured by `mark`: pre-images are
    /// written back newest-first, objects allocated since are truncated,
    /// and a fresh epoch opens so subsequent mutations re-log. The mark
    /// stays valid for further rewinds.
    ///
    /// # Panics
    ///
    /// Panics if `mark` came from a different heap history (its lengths
    /// exceed the current log).
    pub fn rewind(&mut self, mark: &HeapMark) {
        assert!(
            mark.undo_len <= self.undo.len() && mark.objects_len <= self.objects.len(),
            "heap mark from a different history"
        );
        while self.undo.len() > mark.undo_len {
            let (idx, pre) = self.undo.pop().expect("undo entry");
            // Pre-images of objects allocated after the mark die with the
            // truncation below.
            if (idx as usize) < mark.objects_len {
                self.objects[idx as usize] = pre;
            }
        }
        self.objects.truncate(mark.objects_len);
        self.epoch += 1;
    }

    /// Number of pre-images currently in the undo log (test introspection).
    pub fn undo_len(&self) -> usize {
        self.undo.len()
    }

    /// Deterministic full-state render: one line per object with payload,
    /// values, and monitor state, in allocation order. Two heaps render
    /// identically iff they are observationally identical — the byte
    /// surface the mark/rewind round-trip property tests compare.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, o) in self.objects.iter().enumerate() {
            let _ = write!(out, "#{i} ");
            match &o.data {
                ObjectData::Instance { class, fields } => {
                    let _ = write!(out, "instance c{}", class.index());
                    for f in fields {
                        let _ = write!(out, " {f}");
                    }
                }
                ObjectData::Array { data, .. } => {
                    let _ = write!(out, "array[{}]", data.len());
                    for e in data {
                        let _ = write!(out, " {e}");
                    }
                }
            }
            match o.lock_owner {
                Some(t) => {
                    let _ = writeln!(out, " lock=t{}x{}", t, o.lock_count);
                }
                None => {
                    let _ = writeln!(out, " unlocked");
                }
            }
        }
        out
    }

    /// Immutable access to an object.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not allocated by this heap.
    #[inline]
    pub fn object(&self, id: ObjId) -> &Object {
        &self.objects[id.index()]
    }

    #[inline]
    pub(crate) fn object_mut(&mut self, id: ObjId) -> &mut Object {
        let i = id.index();
        // COW hook: with a mark armed, log the object's pre-image the
        // first time it is mutably touched inside the current epoch.
        if self.epoch != 0 && self.objects[i].epoch != self.epoch {
            let pre = self.objects[i].clone();
            self.objects[i].epoch = self.epoch;
            self.undo.push((id.0, pre));
        }
        &mut self.objects[i]
    }

    /// The runtime class of `id`, if it is an instance.
    pub fn class_of(&self, id: ObjId) -> Option<ClassId> {
        self.object(id).class()
    }

    /// Slot index of `field` in instances of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `field` is not a field of `class` — the type checker rules
    /// that out for well-typed programs.
    pub fn field_slot(&self, class: ClassId, field: FieldId) -> usize {
        self.layouts[class.index()][&field]
    }

    /// Reads `obj.field`.
    #[inline]
    pub fn get_field(&self, obj: ObjId, field: FieldId) -> Value {
        match &self.object(obj).data {
            ObjectData::Instance { class, fields } => fields[self.field_slot(*class, field)],
            ObjectData::Array { .. } => panic!("field read on array {obj}"),
        }
    }

    /// Writes `obj.field := value`.
    pub fn set_field(&mut self, obj: ObjId, field: FieldId, value: Value) {
        let slot = match &self.object(obj).data {
            ObjectData::Instance { class, .. } => self.field_slot(*class, field),
            ObjectData::Array { .. } => panic!("field write on array {obj}"),
        };
        match &mut self.object_mut(obj).data {
            ObjectData::Instance { fields, .. } => fields[slot] = value,
            ObjectData::Array { .. } => unreachable!(),
        }
    }

    /// Array length of `obj`.
    pub fn array_len(&self, obj: ObjId) -> usize {
        match &self.object(obj).data {
            ObjectData::Array { data, .. } => data.len(),
            ObjectData::Instance { .. } => panic!("length of non-array {obj}"),
        }
    }

    /// Reads `obj[idx]`; `None` when out of bounds.
    pub fn get_elem(&self, obj: ObjId, idx: i64) -> Option<Value> {
        match &self.object(obj).data {
            ObjectData::Array { data, .. } => {
                usize::try_from(idx).ok().and_then(|i| data.get(i).copied())
            }
            ObjectData::Instance { .. } => panic!("index read on non-array {obj}"),
        }
    }

    /// Writes `obj[idx] := value`; `false` when out of bounds.
    #[must_use]
    pub fn set_elem(&mut self, obj: ObjId, idx: i64, value: Value) -> bool {
        match &mut self.object_mut(obj).data {
            ObjectData::Array { data, .. } => {
                match usize::try_from(idx).ok().and_then(|i| data.get_mut(i)) {
                    Some(slot) => {
                        *slot = value;
                        true
                    }
                    None => false,
                }
            }
            ObjectData::Instance { .. } => panic!("index write on non-array {obj}"),
        }
    }
}

/// Default value for a type: `0`, `false`, or `null`.
pub fn default_value(ty: &Ty) -> Value {
    match ty {
        Ty::Int => Value::Int(0),
        Ty::Bool => Value::Bool(false),
        _ => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use narada_lang::compile;

    fn heap_and_prog() -> (Program, Heap) {
        let prog = compile(
            r#"
            class Base { int a; Base link; }
            class Derived extends Base { bool flag; }
        "#,
        )
        .unwrap();
        let heap = Heap::new(&prog);
        (prog, heap)
    }

    #[test]
    fn instance_defaults() {
        let (prog, mut heap) = heap_and_prog();
        let derived = prog.class_by_name("Derived").unwrap();
        let o = heap.alloc_instance(&prog, derived);
        let a = prog.field_by_name(derived, "a").unwrap();
        let link = prog.field_by_name(derived, "link").unwrap();
        let flag = prog.field_by_name(derived, "flag").unwrap();
        assert_eq!(heap.get_field(o, a), Value::Int(0));
        assert_eq!(heap.get_field(o, link), Value::Null);
        assert_eq!(heap.get_field(o, flag), Value::Bool(false));
    }

    #[test]
    fn inherited_field_slots_work() {
        let (prog, mut heap) = heap_and_prog();
        let derived = prog.class_by_name("Derived").unwrap();
        let o = heap.alloc_instance(&prog, derived);
        let a = prog.field_by_name(derived, "a").unwrap();
        heap.set_field(o, a, Value::Int(42));
        assert_eq!(heap.get_field(o, a), Value::Int(42));
    }

    #[test]
    fn arrays() {
        let (_, mut heap) = heap_and_prog();
        let a = heap.alloc_array(Ty::Int, 3);
        assert_eq!(heap.array_len(a), 3);
        assert_eq!(heap.get_elem(a, 0), Some(Value::Int(0)));
        assert!(heap.set_elem(a, 2, Value::Int(9)));
        assert_eq!(heap.get_elem(a, 2), Some(Value::Int(9)));
        assert_eq!(heap.get_elem(a, 3), None);
        assert_eq!(heap.get_elem(a, -1), None);
        assert!(!heap.set_elem(a, 3, Value::Int(1)));
        assert!(!heap.set_elem(a, -5, Value::Int(1)));
    }

    #[test]
    fn object_identity_distinct() {
        let (prog, mut heap) = heap_and_prog();
        let base = prog.class_by_name("Base").unwrap();
        let o1 = heap.alloc_instance(&prog, base);
        let o2 = heap.alloc_instance(&prog, base);
        assert_ne!(o1, o2);
        assert_eq!(heap.len(), 2);
        assert_eq!(heap.class_of(o1), Some(base));
    }

    #[test]
    fn array_has_no_class() {
        let (_, mut heap) = heap_and_prog();
        let a = heap.alloc_array(Ty::Bool, 1);
        assert_eq!(heap.class_of(a), None);
        assert!(!heap.object(a).is_locked());
    }

    #[test]
    fn mark_rewind_restores_mutations_and_allocations() {
        let (prog, mut heap) = heap_and_prog();
        let base = prog.class_by_name("Base").unwrap();
        let a = prog.field_by_name(base, "a").unwrap();
        let o = heap.alloc_instance(&prog, base);
        heap.set_field(o, a, Value::Int(1));
        let before = heap.render();

        let mark = heap.mark();
        heap.set_field(o, a, Value::Int(99));
        heap.set_field(o, a, Value::Int(100)); // second write, same epoch: one log entry
        let fresh = heap.alloc_instance(&prog, base);
        heap.set_field(fresh, a, Value::Int(7));
        assert_eq!(heap.undo_len(), 1, "fresh objects are never logged");
        assert_eq!(heap.len(), 2);

        heap.rewind(&mark);
        assert_eq!(heap.render(), before);
        assert_eq!(heap.len(), 1);
        assert_eq!(heap.get_field(o, a), Value::Int(1));
    }

    #[test]
    fn mark_is_reusable_across_probes() {
        let (prog, mut heap) = heap_and_prog();
        let base = prog.class_by_name("Base").unwrap();
        let a = prog.field_by_name(base, "a").unwrap();
        let o = heap.alloc_instance(&prog, base);
        let before = heap.render();
        let mark = heap.mark();
        for probe in 0..5 {
            heap.set_field(o, a, Value::Int(probe));
            heap.alloc_array(Ty::Int, 4);
            heap.rewind(&mark);
            assert_eq!(heap.render(), before, "probe {probe}");
        }
    }

    #[test]
    fn nested_marks_rewind_to_outer() {
        let (prog, mut heap) = heap_and_prog();
        let base = prog.class_by_name("Base").unwrap();
        let a = prog.field_by_name(base, "a").unwrap();
        let o = heap.alloc_instance(&prog, base);
        let outer_render = heap.render();
        let outer = heap.mark();
        heap.set_field(o, a, Value::Int(1));
        let inner_render = heap.render();
        let inner = heap.mark();
        heap.set_field(o, a, Value::Int(2));
        heap.rewind(&inner);
        assert_eq!(heap.render(), inner_render);
        heap.rewind(&outer);
        assert_eq!(heap.render(), outer_render);
    }

    #[test]
    fn rewind_restores_lock_state() {
        let (prog, mut heap) = heap_and_prog();
        let base = prog.class_by_name("Base").unwrap();
        let o = heap.alloc_instance(&prog, base);
        let mark = heap.mark();
        let obj = heap.object_mut(o);
        obj.lock_owner = Some(1);
        obj.lock_count = 2;
        assert!(heap.object(o).is_locked());
        heap.rewind(&mark);
        assert!(!heap.object(o).is_locked());
    }
}
