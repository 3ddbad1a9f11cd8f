//! Property-based tests for the SQL layer: random ASTs roundtrip through
//! print → parse, and random WHERE predicates evaluate identically on the
//! fast point-read and key-prefix paths and the full-scan path.

use crate::ast::*;
use crate::exec::execute;
use crate::parse;
use proptest::prelude::*;
use sirep_storage::{Database, Key, TxnHandle, Value};

fn ident() -> impl Strategy<Value = String> {
    // Avoid reserved words; keep identifiers short and lowercase like the
    // lexer folds them.
    "[a-e][a-z0-9_]{0,6}".prop_filter("reserved", |s| {
        !matches!(s.as_str(), "and" | "by" | "create" | "delete" | "desc" | "asc" | "avg" | "count")
    })
}

fn literal() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (0i64..1000).prop_map(|i| Expr::Literal(Value::Int(i))),
        (0u32..1000u32).prop_map(|x| Expr::Literal(Value::Float(f64::from(x) / 8.0))),
        "[a-z ]{0,6}".prop_map(|s| Expr::Literal(Value::Text(s))),
        Just(Expr::Literal(Value::Null)),
    ]
}

fn expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![literal(), ident().prop_map(Expr::Column)];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just(BinOp::Eq),
                    Just(BinOp::Neq),
                    Just(BinOp::Lt),
                    Just(BinOp::Le),
                    Just(BinOp::Gt),
                    Just(BinOp::Ge),
                    Just(BinOp::And),
                    Just(BinOp::Or),
                    Just(BinOp::Add),
                    Just(BinOp::Sub),
                    Just(BinOp::Mul),
                    Just(BinOp::Div),
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| Expr::bin(op, l, r)),
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner, any::<bool>()).prop_map(|(e, n)| Expr::IsNull(Box::new(e), n)),
        ]
    })
}

fn statement() -> impl Strategy<Value = Statement> {
    let select = (
        prop::collection::vec(
            prop_oneof![Just(SelectItem::Star), expr().prop_map(SelectItem::Expr),],
            1..4,
        ),
        ident(),
        prop::option::of(expr()),
        prop::collection::vec(
            (ident(), prop_oneof![Just(OrderDir::Asc), Just(OrderDir::Desc)]),
            0..3,
        ),
        prop::option::of(0u64..100),
    )
        .prop_map(|(projection, table, predicate, order_by, limit)| {
            Statement::Select(Select { projection, table, predicate, order_by, limit })
        });
    let update =
        (ident(), prop::collection::vec((ident(), expr()), 1..4), prop::option::of(expr()))
            .prop_map(|(table, sets, predicate)| Statement::Update { table, sets, predicate });
    let delete = (ident(), prop::option::of(expr()))
        .prop_map(|(table, predicate)| Statement::Delete { table, predicate });
    let insert = (
        ident(),
        prop::option::of(prop::collection::vec(ident(), 1..4)),
        prop::collection::vec(literal(), 1..4),
    )
        .prop_map(|(table, columns, values)| Statement::Insert { table, columns, values });
    prop_oneof![select, update, delete, insert]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// print → parse reproduces the AST exactly.
    #[test]
    fn ast_roundtrips_through_sql_text(stmt in statement()) {
        let printed = stmt.to_string();
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("failed to reparse `{printed}`: {e}"));
        prop_assert_eq!(stmt, reparsed, "text was `{}`", printed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// A WHERE clause that pins the primary key must return the same rows
    /// through the point-read plan as through a full scan.
    #[test]
    fn point_plan_agrees_with_scan_plan(
        rows in prop::collection::btree_map(0i64..50, 0i64..100, 1..30),
        probe in 0i64..50,
        bound in 0i64..100,
    ) {
        let db = Database::in_memory();
        let setup = db.begin().unwrap();
        execute(&db, &setup, &parse("CREATE TABLE t (k INT, v INT, PRIMARY KEY (k))").unwrap())
            .unwrap();
        for (k, v) in &rows {
            execute(&db, &setup, &parse(&format!("INSERT INTO t VALUES ({k}, {v})")).unwrap())
                .unwrap();
        }
        setup.commit().unwrap();

        let t = db.begin().unwrap();
        // Point path: `k = probe AND v < bound` (planner pins k).
        let point = execute(
            &db,
            &t,
            &parse(&format!("SELECT k, v FROM t WHERE k = {probe} AND v < {bound}")).unwrap(),
        )
        .unwrap();
        // Scan path: defeat the planner with an arithmetic identity.
        let scan = execute(
            &db,
            &t,
            &parse(&format!(
                "SELECT k, v FROM t WHERE k + 0 = {probe} AND v < {bound}"
            ))
            .unwrap(),
        )
        .unwrap();
        prop_assert_eq!(point.rows(), scan.rows());
        t.commit().unwrap();
    }
}

/// One write of a generated workload: `(o, l)` key, value, and kind
/// (0 insert-or-update, 1 update, 2 delete).
type OlWrite = ((i64, i64), i64, u8);

fn ol_writes(l_parity: i64) -> impl Strategy<Value = Vec<OlWrite>> {
    prop::collection::vec(
        ((0i64..6, (0i64..3).prop_map(move |l| 2 * l + l_parity)), 0i64..100, 0u8..3),
        0..10,
    )
}

fn apply_ol_writes(db: &Database, t: &TxnHandle, writes: &[OlWrite]) {
    for &((o, l), v, kind) in writes {
        let sql = match kind {
            0 if t.read("ol", &Key(vec![Value::Int(o), Value::Int(l)])).unwrap().is_none() => {
                format!("INSERT INTO ol VALUES ({o}, {l}, {v})")
            }
            0 | 1 => format!("UPDATE ol SET v = {v} WHERE o = {o} AND l = {l}"),
            _ => format!("DELETE FROM ol WHERE o = {o} AND l = {l}"),
        };
        execute(db, t, &parse(&sql).unwrap()).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// A WHERE clause that pins the leading column of a composite key must
    /// return the same rows, in the same order, and track the same reads
    /// through the prefix range plan as through a full scan — over a
    /// snapshot that predates later commits, with the transaction's own
    /// inserts, updates and deletes merged in.
    #[test]
    fn prefix_plan_agrees_with_scan_plan(
        rows in prop::collection::btree_map((0i64..6, 0i64..6), 0i64..100, 1..30),
        later in ol_writes(0),
        own in ol_writes(1),
        probe in prop_oneof![
            (0i64..6).prop_map(Value::Int),
            (0i64..12).prop_map(|x| Value::Float(x as f64 / 2.0)),
            Just(Value::Null),
        ],
        bound in 0i64..100,
    ) {
        let db = Database::in_memory();
        let setup = db.begin().unwrap();
        execute(
            &db,
            &setup,
            &parse("CREATE TABLE ol (o INT, l INT, v INT, PRIMARY KEY (o, l))").unwrap(),
        )
        .unwrap();
        for ((o, l), v) in &rows {
            execute(&db, &setup, &parse(&format!("INSERT INTO ol VALUES ({o}, {l}, {v})")).unwrap())
                .unwrap();
        }
        setup.commit().unwrap();
        db.set_track_reads(true);

        let t = db.begin().unwrap();
        // Commits after t's snapshot write even `l`, t's own writes odd
        // `l`, so neither blocks on or aborts the other.
        let w = db.begin().unwrap();
        apply_ol_writes(&db, &w, &later);
        w.commit().unwrap();
        apply_ol_writes(&db, &t, &own);

        let probe = Expr::Literal(probe);
        let run = |pinned: &str| {
            let before = t.read_keys().len();
            let sql = format!("SELECT o, l, v FROM ol WHERE {pinned} = {probe} AND v < {bound}");
            let out = execute(&db, &t, &parse(&sql).unwrap()).unwrap();
            (out, t.read_keys().split_off(before))
        };
        // `o + 0` defeats the planner, so the second run is a full scan.
        let (prefix, prefix_reads) = run("o");
        let (scan, scan_reads) = run("o + 0");
        prop_assert_eq!(prefix.rows(), scan.rows());
        prop_assert_eq!(prefix_reads, scan_reads);
        t.commit().unwrap();
    }
}
