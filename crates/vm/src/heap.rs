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

use crate::error::VmErrorKind;
use crate::value::{ObjId, Value};
use narada_lang::hir::{ClassId, FieldId, Program, Ty};

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

/// The heap: an arena of objects of one program's classes.
#[derive(Debug, Clone)]
pub struct Heap<'p> {
    /// The program whose classes the instances belong to; its
    /// [`Program::field_slot`] table places every field.
    prog: &'p Program,
    objects: Vec<Object>,
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

impl<'p> Heap<'p> {
    /// Creates an empty heap for instances of `prog`'s classes.
    pub fn new(prog: &'p Program) -> Self {
        Heap {
            prog,
            objects: Vec::new(),
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
    pub fn alloc_instance(&mut self, class: ClassId) -> ObjId {
        let prog = self.prog;
        let fields = prog
            .fields_of(class)
            .iter()
            .map(|&f| default_value(&prog.field(f).ty))
            .collect::<Vec<_>>();
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
    #[inline]
    pub fn class_of(&self, id: ObjId) -> Option<ClassId> {
        self.object(id).class()
    }

    /// The slot of `field` in `obj`, or `None` when `obj` is an array or
    /// an instance whose class lacks the field (a field's slot is the
    /// same in every class that has it; see [`Program::field_slot`]).
    #[inline]
    fn field_slot_of(&self, obj: ObjId, field: FieldId) -> Option<usize> {
        let slot = self.prog.field_slot(field);
        match &self.object(obj).data {
            ObjectData::Instance { class, .. }
                if self.prog.fields_of(*class).get(slot) == Some(&field) =>
            {
                Some(slot)
            }
            _ => None,
        }
    }

    /// Reads `obj.field`.
    ///
    /// # Errors
    ///
    /// [`VmErrorKind::TypeConfusion`] when `obj` is an array or an
    /// instance whose class lacks `field`.
    #[inline]
    pub fn get_field(&self, obj: ObjId, field: FieldId) -> Result<Value, VmErrorKind> {
        match (self.field_slot_of(obj, field), &self.object(obj).data) {
            (Some(slot), ObjectData::Instance { fields, .. }) => Ok(fields[slot]),
            _ => Err(confusion("field read", obj)),
        }
    }

    /// Writes `obj.field := value`.
    ///
    /// # Errors
    ///
    /// As [`Heap::get_field`]; the heap is left unchanged.
    #[inline]
    pub fn set_field(
        &mut self,
        obj: ObjId,
        field: FieldId,
        value: Value,
    ) -> Result<(), VmErrorKind> {
        let Some(slot) = self.field_slot_of(obj, field) else {
            return Err(confusion("field write", obj));
        };
        match &mut self.object_mut(obj).data {
            ObjectData::Instance { fields, .. } => fields[slot] = value,
            ObjectData::Array { .. } => unreachable!("field_slot_of found an instance"),
        }
        Ok(())
    }

    /// Array length of `obj`.
    ///
    /// # Errors
    ///
    /// [`VmErrorKind::TypeConfusion`] when `obj` is an instance.
    #[inline]
    pub fn array_len(&self, obj: ObjId) -> Result<usize, VmErrorKind> {
        match &self.object(obj).data {
            ObjectData::Array { data, .. } => Ok(data.len()),
            ObjectData::Instance { .. } => Err(confusion("array length", obj)),
        }
    }

    /// Reads `obj[idx]`.
    ///
    /// # Errors
    ///
    /// [`VmErrorKind::IndexOutOfBounds`] when `idx` is out of bounds, and
    /// [`VmErrorKind::TypeConfusion`] when `obj` is an instance.
    #[inline]
    pub fn get_elem(&self, obj: ObjId, idx: i64) -> Result<Value, VmErrorKind> {
        match &self.object(obj).data {
            ObjectData::Array { data, .. } => usize::try_from(idx)
                .ok()
                .and_then(|i| data.get(i).copied())
                .ok_or(VmErrorKind::IndexOutOfBounds {
                    idx,
                    len: data.len(),
                }),
            ObjectData::Instance { .. } => Err(confusion("index read", obj)),
        }
    }

    /// Writes `obj[idx] := value`.
    ///
    /// # Errors
    ///
    /// As [`Heap::get_elem`]; the heap is left unchanged.
    #[inline]
    pub fn set_elem(&mut self, obj: ObjId, idx: i64, value: Value) -> Result<(), VmErrorKind> {
        let len = match &self.object(obj).data {
            ObjectData::Array { data, .. } => data.len(),
            ObjectData::Instance { .. } => return Err(confusion("index write", obj)),
        };
        let Some(i) = usize::try_from(idx).ok().filter(|&i| i < len) else {
            return Err(VmErrorKind::IndexOutOfBounds { idx, len });
        };
        match &mut self.object_mut(obj).data {
            ObjectData::Array { data, .. } => data[i] = value,
            ObjectData::Instance { .. } => unreachable!("checked to be an array above"),
        }
        Ok(())
    }
}

/// The trap for a heap operation on an object of the wrong shape.
#[cold]
fn confusion(op: &'static str, obj: ObjId) -> VmErrorKind {
    VmErrorKind::TypeConfusion { op, obj }
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

    fn prog() -> Program {
        compile(
            r#"
            class Base { int a; Base link; }
            class Derived extends Base { bool flag; }
            class Other { int b; }
        "#,
        )
        .unwrap()
    }

    #[test]
    fn instance_defaults() {
        let prog = prog();
        let mut heap = Heap::new(&prog);
        let derived = prog.class_by_name("Derived").unwrap();
        let o = heap.alloc_instance(derived);
        let a = prog.field_by_name(derived, "a").unwrap();
        let link = prog.field_by_name(derived, "link").unwrap();
        let flag = prog.field_by_name(derived, "flag").unwrap();
        assert_eq!(heap.get_field(o, a).unwrap(), Value::Int(0));
        assert_eq!(heap.get_field(o, link).unwrap(), Value::Null);
        assert_eq!(heap.get_field(o, flag).unwrap(), Value::Bool(false));
    }

    #[test]
    fn inherited_field_slots_work() {
        let prog = prog();
        let mut heap = Heap::new(&prog);
        let derived = prog.class_by_name("Derived").unwrap();
        let o = heap.alloc_instance(derived);
        let a = prog.field_by_name(derived, "a").unwrap();
        heap.set_field(o, a, Value::Int(42)).unwrap();
        assert_eq!(heap.get_field(o, a).unwrap(), Value::Int(42));
    }

    #[test]
    fn arrays() {
        let prog = prog();
        let mut heap = Heap::new(&prog);
        let a = heap.alloc_array(Ty::Int, 3);
        fn oob<T>(idx: i64, len: usize) -> Result<T, VmErrorKind> {
            Err(VmErrorKind::IndexOutOfBounds { idx, len })
        }
        assert_eq!(heap.array_len(a), Ok(3));
        assert_eq!(heap.get_elem(a, 0), Ok(Value::Int(0)));
        assert_eq!(heap.set_elem(a, 2, Value::Int(9)), Ok(()));
        assert_eq!(heap.get_elem(a, 2), Ok(Value::Int(9)));
        assert_eq!(heap.get_elem(a, 3), oob(3, 3));
        assert_eq!(heap.get_elem(a, -1), oob(-1, 3));
        assert_eq!(heap.set_elem(a, 3, Value::Int(1)), oob(3, 3));
        assert_eq!(heap.set_elem(a, -5, Value::Int(1)), oob(-5, 3));
    }

    #[test]
    fn shape_confusion_is_an_error_not_a_wrong_slot() {
        let prog = prog();
        let mut heap = Heap::new(&prog);
        let derived = prog.class_by_name("Derived").unwrap();
        let other = prog.class_by_name("Other").unwrap();
        let o = heap.alloc_instance(derived);
        let arr = heap.alloc_array(Ty::Int, 2);
        // `Other.b` has slot 0, which `Derived` instances fill with `a`.
        let b = prog.field_by_name(other, "b").unwrap();
        assert_eq!(prog.field_slot(b), 0);
        fn confused<T>(op: &'static str, obj: ObjId) -> Result<T, VmErrorKind> {
            Err(VmErrorKind::TypeConfusion { op, obj })
        }
        assert_eq!(heap.get_field(o, b), confused("field read", o));
        assert_eq!(
            heap.set_field(o, b, Value::Int(1)),
            confused("field write", o)
        );
        assert_eq!(heap.get_field(arr, b), confused("field read", arr));
        assert_eq!(
            heap.set_field(arr, b, Value::Int(1)),
            confused("field write", arr)
        );
        assert_eq!(heap.array_len(o), confused("array length", o));
        assert_eq!(heap.get_elem(o, 0), confused("index read", o));
        assert_eq!(
            heap.set_elem(o, 0, Value::Int(1)),
            confused("index write", o)
        );
        assert_eq!(heap.undo_len(), 0);
        let a = prog.field_by_name(derived, "a").unwrap();
        assert_eq!(heap.get_field(o, a), Ok(Value::Int(0)), "untouched");
    }

    #[test]
    fn object_identity_distinct() {
        let prog = prog();
        let mut heap = Heap::new(&prog);
        let base = prog.class_by_name("Base").unwrap();
        let o1 = heap.alloc_instance(base);
        let o2 = heap.alloc_instance(base);
        assert_ne!(o1, o2);
        assert_eq!(heap.len(), 2);
        assert_eq!(heap.class_of(o1), Some(base));
    }

    #[test]
    fn array_has_no_class() {
        let prog = prog();
        let mut heap = Heap::new(&prog);
        let a = heap.alloc_array(Ty::Bool, 1);
        assert_eq!(heap.class_of(a), None);
        assert!(!heap.object(a).is_locked());
    }

    #[test]
    fn mark_rewind_restores_mutations_and_allocations() {
        let prog = prog();
        let mut heap = Heap::new(&prog);
        let base = prog.class_by_name("Base").unwrap();
        let a = prog.field_by_name(base, "a").unwrap();
        let o = heap.alloc_instance(base);
        heap.set_field(o, a, Value::Int(1)).unwrap();
        let before = heap.render();

        let mark = heap.mark();
        heap.set_field(o, a, Value::Int(99)).unwrap();
        heap.set_field(o, a, Value::Int(100)).unwrap(); // second write, same epoch: one log entry
        let fresh = heap.alloc_instance(base);
        heap.set_field(fresh, a, Value::Int(7)).unwrap();
        assert_eq!(heap.undo_len(), 1, "fresh objects are never logged");
        assert_eq!(heap.len(), 2);

        heap.rewind(&mark);
        assert_eq!(heap.render(), before);
        assert_eq!(heap.len(), 1);
        assert_eq!(heap.get_field(o, a).unwrap(), Value::Int(1));
    }

    #[test]
    fn mark_is_reusable_across_probes() {
        let prog = prog();
        let mut heap = Heap::new(&prog);
        let base = prog.class_by_name("Base").unwrap();
        let a = prog.field_by_name(base, "a").unwrap();
        let o = heap.alloc_instance(base);
        let before = heap.render();
        let mark = heap.mark();
        for probe in 0..5 {
            heap.set_field(o, a, Value::Int(probe)).unwrap();
            heap.alloc_array(Ty::Int, 4);
            heap.rewind(&mark);
            assert_eq!(heap.render(), before, "probe {probe}");
        }
    }

    #[test]
    fn nested_marks_rewind_to_outer() {
        let prog = prog();
        let mut heap = Heap::new(&prog);
        let base = prog.class_by_name("Base").unwrap();
        let a = prog.field_by_name(base, "a").unwrap();
        let o = heap.alloc_instance(base);
        let outer_render = heap.render();
        let outer = heap.mark();
        heap.set_field(o, a, Value::Int(1)).unwrap();
        let inner_render = heap.render();
        let inner = heap.mark();
        heap.set_field(o, a, Value::Int(2)).unwrap();
        heap.rewind(&inner);
        assert_eq!(heap.render(), inner_render);
        heap.rewind(&outer);
        assert_eq!(heap.render(), outer_render);
    }

    #[test]
    fn rewind_restores_lock_state() {
        let prog = prog();
        let mut heap = Heap::new(&prog);
        let base = prog.class_by_name("Base").unwrap();
        let o = heap.alloc_instance(base);
        let mark = heap.mark();
        let obj = heap.object_mut(o);
        obj.lock_owner = Some(1);
        obj.lock_count = 2;
        assert!(heap.object(o).is_locked());
        heap.rewind(&mark);
        assert!(!heap.object(o).is_locked());
    }
}
