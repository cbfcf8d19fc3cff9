//! Rot routing: moving departing tuples into other containers.
//!
//! The paper's second law gives departing data four destinies: distilled
//! into a summary, consumed by the user, discarded — or "stored in a new
//! container subject to different data fungi". Distillation covers the
//! first; [`RouteSpec`] covers the last: a projection of every departing
//! tuple is inserted into a *target* container, which ages under its own
//! fungus. Chaining routes builds the hot → warm → cold hierarchies the
//! paper sketches.

use std::sync::Arc;

use fungus_lint_rt::OrderedRwLock;
use serde::{Deserialize, Serialize};

use fungus_types::{FungusError, Result, Schema, Tick, Tuple, Value};

use crate::database::ContainerHandle;
use crate::distill::DistillTrigger;
use crate::mvcc::ContainerMvcc;

/// Declarative description of a route.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteSpec {
    /// Target container name.
    pub to: String,
    /// Source columns projected into the target (in target-schema order).
    pub columns: Vec<String>,
    /// Which departures flow: consumed, rotted, or both.
    pub trigger: DistillTrigger,
}

/// A resolved, validated route.
pub(crate) struct Route {
    pub(crate) to_name: String,
    pub(crate) target: ContainerHandle,
    /// The target's MVCC cell: deliveries mutate the target, so they
    /// publish a fresh snapshot for its lock-free readers.
    target_mvcc: Arc<ContainerMvcc>,
    projection: Vec<usize>,
    pub(crate) trigger: DistillTrigger,
}

impl Route {
    /// Resolves a spec against the source schema and target container.
    pub(crate) fn resolve(
        spec: &RouteSpec,
        source_schema: &Schema,
        target: ContainerHandle,
        target_mvcc: Arc<ContainerMvcc>,
    ) -> Result<Route> {
        let mut projection = Vec::with_capacity(spec.columns.len());
        for name in &spec.columns {
            projection.push(
                source_schema
                    .index_of(name)
                    .ok_or_else(|| FungusError::UnknownColumn(name.clone()))?,
            );
        }
        // Validate shape against the target schema: arity and coercibility
        // of the projected columns' declared types.
        {
            let guard = target.read();
            let target_schema = guard.schema();
            if target_schema.arity() != projection.len() {
                return Err(FungusError::InvalidConfig(format!(
                    "route to `{}` projects {} columns but the target has {}",
                    spec.to,
                    projection.len(),
                    target_schema.arity()
                )));
            }
            for (tcol, sidx) in target_schema.columns().iter().zip(&projection) {
                let scol = &source_schema.columns()[*sidx];
                if !scol.data_type.coercible_to(tcol.data_type) {
                    return Err(FungusError::InvalidConfig(format!(
                        "route to `{}`: source column `{}` ({}) does not fit target \
                         column `{}` ({})",
                        spec.to, scol.name, scol.data_type, tcol.name, tcol.data_type
                    )));
                }
            }
        }
        Ok(Route {
            to_name: spec.to.clone(),
            target,
            target_mvcc,
            projection,
            trigger: spec.trigger,
        })
    }

    /// Projects a departing tuple onto the target row shape.
    pub(crate) fn project(&self, tuple: &Tuple) -> Vec<Value> {
        self.projection
            .iter()
            .map(|i| tuple.values[*i].clone())
            .collect()
    }

    /// Delivers a batch of departures to the target. The caller must NOT
    /// hold the source container's lock (route delivery takes the target's
    /// write lock; taking both invites deadlock under a routing cycle).
    pub(crate) fn deliver(&self, departures: &[Tuple], rotted: bool, now: Tick) -> Result<usize> {
        if departures.is_empty() || !self.trigger.accepts(rotted) {
            return Ok(0);
        }
        let mut guard = self.target.write();
        let mut delivered = 0;
        for t in departures {
            guard.insert(self.project(t), now)?;
            delivered += 1;
        }
        // Seal what arrived before the target's lock drops, so snapshot
        // readers of the target see routed data as soon as it lands.
        guard.publish_into(&self.target_mvcc);
        Ok(delivered)
    }
}

impl std::fmt::Debug for Route {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Route")
            .field("to", &self.to_name)
            .field("projection", &self.projection)
            .field("trigger", &self.trigger)
            .finish()
    }
}

/// The shared route table of one source container. The decay task and the
/// query path both consult it; `Database::add_route` appends to it.
pub(crate) type RouteTable = Arc<OrderedRwLock<Vec<Route>>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::Container;
    use crate::policy::ContainerPolicy;
    use fungus_clock::DeterministicRng;
    use fungus_types::{DataType, TupleId};

    fn target(schema: Schema) -> (ContainerHandle, Arc<ContainerMvcc>) {
        let mut container = Container::new(
            "cold",
            schema,
            ContainerPolicy::immortal(),
            &DeterministicRng::new(1),
        )
        .unwrap();
        let cell = Arc::new(container.open_cell());
        let handle = Arc::new(OrderedRwLock::new(
            &fungus_lint_rt::hierarchy::CONTAINERS,
            container,
        ));
        (handle, cell)
    }

    fn source_schema() -> Schema {
        Schema::from_pairs(&[
            ("k", DataType::Int),
            ("v", DataType::Float),
            ("tag", DataType::Str),
        ])
        .unwrap()
    }

    #[test]
    fn resolve_validates_both_sides() {
        let (tgt, cell) = target(Schema::from_pairs(&[("v", DataType::Float)]).unwrap());
        let cell = || Arc::clone(&cell);
        // Unknown source column.
        let bad = RouteSpec {
            to: "cold".into(),
            columns: vec!["missing".into()],
            trigger: DistillTrigger::Both,
        };
        assert!(matches!(
            Route::resolve(&bad, &source_schema(), Arc::clone(&tgt), cell()),
            Err(FungusError::UnknownColumn(_))
        ));
        // Arity mismatch.
        let bad = RouteSpec {
            to: "cold".into(),
            columns: vec!["k".into(), "v".into()],
            trigger: DistillTrigger::Both,
        };
        assert!(Route::resolve(&bad, &source_schema(), Arc::clone(&tgt), cell()).is_err());
        // Type mismatch: Str → Float.
        let bad = RouteSpec {
            to: "cold".into(),
            columns: vec!["tag".into()],
            trigger: DistillTrigger::Both,
        };
        assert!(Route::resolve(&bad, &source_schema(), Arc::clone(&tgt), cell()).is_err());
        // Int widens into Float: fine.
        let ok = RouteSpec {
            to: "cold".into(),
            columns: vec!["k".into()],
            trigger: DistillTrigger::Both,
        };
        Route::resolve(&ok, &source_schema(), tgt, cell()).unwrap();
    }

    #[test]
    fn deliver_projects_and_honours_trigger() {
        let (tgt, cell) =
            target(Schema::from_pairs(&[("v", DataType::Float), ("k", DataType::Int)]).unwrap());
        let spec = RouteSpec {
            to: "cold".into(),
            columns: vec!["v".into(), "k".into()], // reordered projection
            trigger: DistillTrigger::Rotted,
        };
        let route = Route::resolve(&spec, &source_schema(), Arc::clone(&tgt), cell).unwrap();
        let departures = vec![Tuple::new(
            TupleId(0),
            Tick(1),
            vec![Value::Int(7), Value::Float(1.5), Value::from("x")],
        )];
        // Consumed departures are filtered by the trigger.
        assert_eq!(route.deliver(&departures, false, Tick(2)).unwrap(), 0);
        assert_eq!(tgt.read().live_count(), 0);
        // Rotted departures flow, projected and reordered.
        assert_eq!(route.deliver(&departures, true, Tick(2)).unwrap(), 1);
        let mut rows = Vec::new();
        tgt.read()
            .extent()
            .for_each_shard_store(|_, store| {
                rows.extend(store.iter_live().cloned());
                Ok(())
            })
            .unwrap();
        let row = &rows[0];
        assert_eq!(row.values.to_vec(), vec![Value::Float(1.5), Value::Int(7)]);
        assert_eq!(
            row.meta.inserted_at,
            Tick(2),
            "re-inserted fresh at delivery time"
        );
    }
}
