// Package maybms is a self-contained Go implementation of world-set
// decompositions (WSDs), the representation system for incomplete and
// probabilistic information of
//
//	Antova, Koch, Olteanu:
//	"10^(10^6) Worlds and Beyond: Efficient Representation and Processing
//	of Incomplete Information" (ICDE 2007 / VLDB Journal),
//
// the research prototype that grew into the MayBMS system.
//
// The package is a facade: it re-exports the stable surface of the internal
// packages so downstream users get one import path.
//
//   - WSD / WSDT / Component — the decomposition model (Section 3) and the
//     relational algebra on decompositions (Section 4, Figure 9).
//   - UWSDT — the uniform, fixed-schema encoding (Figure 8) with the
//     Figure 16 selection.
//   - Chase, FD, EGD — data cleaning (Section 8, Figure 24).
//   - Conf, Possible, PossibleP — confidence computation (Section 6).
//   - Normalize, DecomposeRelation — normalization (Section 7, Figure 20).
//   - Store — the scalable columnar UWSDT engine behind the Section 9
//     census experiments, with the workload generator in internal/census.
//   - Open / DB / Stmt / Rows — the SQL session API: prepared statements
//     with ? parameters over the MayBMS query subset (CONF(), POSSIBLE,
//     CERTAIN), plans compiled once and cached, results streamed through a
//     pull iterator whose Close releases every session-scoped relation.
//     EXPLAIN emits the Section 5 rewritings.
package maybms

import (
	"maybms/internal/bridge"
	"maybms/internal/chase"
	"maybms/internal/confidence"
	"maybms/internal/core"
	"maybms/internal/engine"
	"maybms/internal/factor"
	"maybms/internal/normalize"
	"maybms/internal/orset"
	"maybms/internal/relation"
	"maybms/internal/sql"
	"maybms/internal/storage"
	"maybms/internal/tupleind"
	"maybms/internal/uwsdt"
	"maybms/internal/worlds"
)

// Decomposition model (internal/core).
type (
	// WSD is a world-set decomposition (Definition 1/2).
	WSD = core.WSD
	// WSDT is a WSD with template relations.
	WSDT = core.WSDT
	// Component is one factor of a decomposition.
	Component = core.Component
	// FieldRef identifies the Attr-field of tuple slot Tuple of relation Rel.
	FieldRef = core.FieldRef
	// Row is a local world of a component.
	Row = core.Row
	// Evaluator rewrites relational algebra queries to WSD operations.
	Evaluator = core.Evaluator
)

// NewWSD creates an empty WSD over a schema with given maximum
// cardinalities; NewComponent builds a component; FromDatabase lifts a
// certain database; SplitTemplate extracts template relations.
var (
	NewWSD        = core.New
	NewComponent  = core.NewComponent
	FromDatabase  = core.FromDatabase
	SplitTemplate = core.SplitTemplate
	NewEvaluator  = core.NewEvaluator
	Compose       = core.Compose
)

// Values and relational substrate (internal/relation).
type (
	// Value is a dynamically typed field value (int, string, ⊥, ?).
	Value = relation.Value
	// Tuple is an ordered list of values.
	Tuple = relation.Tuple
	// Relation is an in-memory set-semantics relation.
	Relation = relation.Relation
	// Op is a comparison operator θ.
	Op = relation.Op
	// Predicate is a selection condition.
	Predicate = relation.Predicate
)

// Comparison operators.
const (
	EQ = relation.EQ
	NE = relation.NE
	LT = relation.LT
	LE = relation.LE
	GT = relation.GT
	GE = relation.GE
)

// Value constructors and relation helpers.
var (
	Int         = relation.Int
	Str         = relation.String
	Bottom      = relation.Bottom
	Placeholder = relation.Placeholder
	NewSchema   = relation.NewSchema
	NewRelation = relation.NewWith
)

// Predicate constructors: Attr θ c, Attr θ Attr, conjunction, disjunction,
// negation.
type (
	// CmpConst is the atom Attr θ c.
	CmpConst = relation.AttrConst
	// CmpAttrs is the atom A θ B.
	CmpAttrs = relation.AttrAttr
	// AndP is a conjunction of predicates.
	AndP = relation.And
	// OrP is a disjunction of predicates.
	OrP = relation.Or
	// NotP negates a predicate.
	NotP = relation.Not
)

// Eq and Cmp build integer comparison atoms.
var (
	Eq  = relation.Eq
	Cmp = relation.Cmp
)

// Possible worlds (internal/worlds).
type (
	// Database is one possible world.
	Database = worlds.Database
	// WorldSet is a finite set of worlds with probability weights.
	WorldSet = worlds.WorldSet
	// DBSchema is a database schema Σ.
	DBSchema = worlds.Schema
	// RelSchema is one relation schema of Σ.
	RelSchema = worlds.RelSchema
	// Query is a relational algebra query AST.
	Query = worlds.Query
)

// Query AST constructors.
type (
	// Base references a base relation.
	Base = worlds.Base
	// Select is σ.
	Select = worlds.Select
	// Project is π.
	Project = worlds.Project
	// ProductQ is ×.
	ProductQ = worlds.Product
	// UnionQ is ∪.
	UnionQ = worlds.Union
	// DifferenceQ is −.
	DifferenceQ = worlds.Difference
	// RenameQ is δ.
	RenameQ = worlds.Rename
)

var (
	NewDatabase  = worlds.NewDatabase
	NewWorldSet  = worlds.NewWorldSet
	NewDBSchema  = worlds.NewSchema
	EvalPerWorld = worlds.EvalWorldSet
)

// Data cleaning (internal/chase).
type (
	// FD is a functional dependency.
	FD = chase.FD
	// EGD is a single-tuple equality-generating dependency.
	EGD = chase.EGD
	// DependencyAtom is one comparison of an EGD.
	DependencyAtom = chase.Atom
	// Dependency is a chaseable constraint.
	Dependency = chase.Dependency
)

// Chase enforces dependencies on a WSD; ErrInconsistent signals an empty
// world-set.
var (
	Chase            = chase.Chase
	ErrInconsistent  = chase.ErrInconsistent
	DependenciesHold = chase.HoldsAll
)

// Confidence computation (internal/confidence).
type (
	// TupleConf pairs a tuple with its confidence.
	TupleConf = confidence.TupleConf
)

var (
	Conf      = confidence.Conf
	Possible  = confidence.Possible
	PossibleP = confidence.PossibleP
	Certain   = confidence.Certain
)

// Normalization (internal/normalize) and relation factorization
// (internal/factor).
var (
	Normalize           = normalize.Normalize
	Compress            = normalize.Compress
	RemoveInvalidTuples = normalize.RemoveInvalidTuples
	DecomposeWSD        = normalize.DecomposeComponents
	DecomposeRelation   = factor.Decompose
	ValidDecomposition  = factor.Valid
)

// Uniform encoding (internal/uwsdt).
type (
	// UWSDT is the fixed-schema C/F/W encoding with templates.
	UWSDT = uwsdt.UWSDT
	// UWSDTStats are the Figure 27 characteristics.
	UWSDTStats = uwsdt.Stats
)

var (
	UniformFromWSD  = uwsdt.FromWSD
	UniformFromWSDT = uwsdt.FromWSDT
)

// Baselines.
type (
	// OrSetRelation is a relation with or-set fields.
	OrSetRelation = orset.Relation
	// OrSetField is one or-set field.
	OrSetField = orset.Field
	// TupleIndependentDB is a Dalvi–Suciu probabilistic database.
	TupleIndependentDB = tupleind.DB
	// TupleIndependentTable is one of its tables.
	TupleIndependentTable = tupleind.Table
)

var (
	NewOrSetRelation = orset.New
	OrInts           = orset.OrInts
	CertainField     = orset.Certain
	NewTupleIndTable = tupleind.NewTable
)

// Scalable engine (internal/engine). The engine API is snapshot/arena
// structured: Store.Snapshot returns an O(1) copy-on-write, read-only view
// of the catalog and component space; NewArena opens a private result space
// over it, and the relational operators (Select, Project, Rename, Join,
// Product, Union, Difference) run as Arena methods — reading shared state,
// writing only the arena. The native across-world operators (EngineConf,
// EnginePossibleP, EnginePossible, EngineCertain — computed directly on the
// columnar representation, no WSD materialization) are functions over any
// view of it: a Store, a StoreSnapshot or a StoreArena. Any number of arenas evaluate concurrently over one
// store; dropping an arena releases its results, Arena.Commit installs
// them. StoreToWSD/StoreToWSDOf bridge engine state to the WSD model, for
// small data and as the confidence oracle.
type (
	// Store is the columnar UWSDT engine.
	Store = engine.Store
	// StoreSnapshot is a read-only, point-in-time view of a store.
	StoreSnapshot = engine.Snapshot
	// StoreArena is a private result space over one snapshot; the engine
	// operators run as its methods.
	StoreArena = engine.Arena
	// StoreStats are per-relation representation statistics.
	StoreStats = engine.Stats
	// EngineTupleConf pairs a possible tuple (native int32 encoding) with
	// its confidence: the answer rows of the engine-native across-world
	// operators EngineConf/EnginePossibleP/EnginePossible/EngineCertain.
	EngineTupleConf = engine.TupleConf
	// EnginePred is a predicate over template rows.
	EnginePred = engine.Pred
	// EngineEGD is an engine-level cleaning dependency.
	EngineEGD = engine.EGD
	// EngineAtom is one comparison of an engine-level dependency.
	EngineAtom = engine.Atom
)

// Engine predicate constructors and options.
var (
	NewStore = engine.NewStore
	NewArena = engine.NewArena
	// AcquireArena / ReleaseArena are the pooled arena lifecycle for
	// high-QPS serving: acquire over a snapshot, release when the results
	// are dead; a reset arena is indistinguishable from a fresh one.
	AcquireArena = engine.AcquireArena
	ReleaseArena = engine.ReleaseArena
	// The Section 6 operators, native on a Store, StoreSnapshot or
	// StoreArena.
	EngineConf      = engine.Conf
	EnginePossibleP = engine.PossibleP
	EnginePossible  = engine.Possible
	EngineCertain   = engine.Certain
	EngineEq        = engine.Eq
	EngineNe        = engine.Ne
	EngineGt        = engine.Gt
	// StoreToWSD converts a whole store, StoreToWSDOf the named relations of
	// a Store, StoreSnapshot or StoreArena, into a WSD.
	StoreToWSD   = bridge.ToWSD
	StoreToWSDOf = bridge.ToWSDOf
	ChaseOptions = func(refined, assumeClean bool) engine.ChaseOptions {
		return engine.ChaseOptions{Refined: refined, AssumeClean: assumeClean}
	}
)

// SQL frontend (internal/sql): parse a statement of the MayBMS subset, plan
// it, execute it on the engine store, and render the Section 5 rewriting of
// the plan. See the internal/sql package comment for the
// grammar.
type (
	// SQLStmt is a parsed SQL statement.
	SQLStmt = sql.Stmt
	// SQLResult is the outcome of executing a statement.
	SQLResult = sql.Result
	// SQLEnginePlan is a statement compiled to native engine operators.
	SQLEnginePlan = sql.EnginePlan
	// SQLMode is the across-world construct of a statement
	// (CONF()/POSSIBLE/CERTAIN).
	SQLMode = sql.Mode
)

// Session API: Open wraps a Store in a DB; DB.Prepare compiles a statement
// once (? placeholders become bind parameters, plans are cached per DB);
// Stmt.Query executes it with bound arguments and returns a Rows pull
// iterator (Next/Scan/Columns/Err/Close). Each execution acquires a store
// Snapshot and materializes into a private Arena, so independent queries
// run truly in parallel — no store lock is held during execution — and
// Rows.Close releases the whole result by dropping the arena. Catalog
// writers (Materialize, DropRelation) serialize and commit copy-on-write,
// leaving concurrent readers on their frozen snapshots. A DB is safe for
// concurrent use.
type (
	// DB is a SQL session over an engine store.
	DB = sql.DB
	// Stmt is a prepared statement: plan compiled once, executed many
	// times with different bound parameters.
	Stmt = sql.Prepared
	// Rows is the pull iterator over one execution's result.
	Rows = sql.Rows
)

// Open opens a session over an engine store.
var Open = sql.Open

// Durability (internal/storage, docs/snapshot-format.md): Restore opens a
// durable data directory — newest snapshot loaded, write-ahead log replayed
// — and returns a DB that logs every further catalog commit there;
// InitDir makes an in-memory store durable by writing its first snapshot.
// DB.Checkpoint compacts the log into a fresh snapshot. SaveSnapshot and
// LoadSnapshot serialize a single store to and from a stream; LoadStoreCSV
// bulk-ingests a CSV stream (fields "a|b|c" become or-sets) into a fresh
// store. A DB opened through plain Open persists nothing.
var (
	Restore      = sql.Restore
	InitDir      = sql.InitDir
	SaveSnapshot = storage.Save
	LoadSnapshot = storage.Load
	LoadStoreCSV = storage.LoadCSV
)

// SQL execution modes.
const (
	SQLPlain    = sql.ModePlain
	SQLConf     = sql.ModeConf
	SQLPossible = sql.ModePossible
	SQLCertain  = sql.ModeCertain
)

// ParseSQL parses one statement; Explain renders the Section 5 SQL rewriting
// of its plan.
var (
	ParseSQL = sql.Parse
	Explain  = sql.Explain
)
