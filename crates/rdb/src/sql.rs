//! Render parsed statements back to SQL text.
//!
//! The durability layer persists DDL *logically*: a WAL record or
//! snapshot stores the SQL text of the statement, and recovery re-parses
//! and re-executes it. That only works if rendering is an exact inverse
//! of parsing — `parse_stmt(stmt_to_sql(s)) == s` for every statement the
//! parser can produce. Expressions are rendered fully parenthesized so
//! operator precedence never has to be reconstructed.
//!
//! The one deliberate exception: `Expr::Literal(Value::Int(n))` with
//! negative `n` renders as `-n`, which re-parses as unary negation of a
//! positive literal. The parser itself never produces a negative integer
//! literal, so ASTs that round-tripped through SQL once (trigger bodies,
//! replayed DDL) are unaffected.

use crate::ast::*;
use crate::value::Value;
use std::fmt::Write;

/// Render a statement as parseable SQL text.
pub fn stmt_to_sql(stmt: &Stmt) -> String {
    let mut out = String::new();
    write_stmt(&mut out, stmt);
    out
}

fn write_stmt(out: &mut String, stmt: &Stmt) {
    match stmt {
        Stmt::CreateTable {
            name,
            columns,
            if_not_exists,
        } => {
            out.push_str("CREATE TABLE ");
            if *if_not_exists {
                out.push_str("IF NOT EXISTS ");
            }
            out.push_str(name);
            out.push_str(" (");
            for (i, c) in columns.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{} {}", c.name, c.ty);
            }
            out.push(')');
        }
        Stmt::DropTable { name, if_exists } => {
            out.push_str("DROP TABLE ");
            if *if_exists {
                out.push_str("IF EXISTS ");
            }
            out.push_str(name);
        }
        Stmt::CreateIndex {
            name,
            table,
            column,
        } => {
            let _ = write!(out, "CREATE INDEX {name} ON {table} ({column})");
        }
        Stmt::Analyze { table } => {
            out.push_str("ANALYZE");
            if let Some(t) = table {
                let _ = write!(out, " {t}");
            }
        }
        Stmt::CreateTrigger {
            name,
            event,
            table,
            granularity,
            body,
        } => {
            let event = match event {
                TriggerEvent::Delete => "DELETE",
                TriggerEvent::Insert => "INSERT",
            };
            let granularity = match granularity {
                TriggerGranularity::Row => "ROW",
                TriggerGranularity::Statement => "STATEMENT",
            };
            let _ = write!(
                out,
                "CREATE TRIGGER {name} AFTER {event} ON {table} FOR EACH {granularity} BEGIN "
            );
            for s in body {
                write_stmt(out, s);
                out.push_str("; ");
            }
            out.push_str("END");
        }
        Stmt::DropTrigger { name } => {
            let _ = write!(out, "DROP TRIGGER {name}");
        }
        Stmt::Insert {
            table,
            columns,
            source,
        } => {
            let _ = write!(out, "INSERT INTO {table} ");
            if let Some(cols) = columns {
                out.push('(');
                out.push_str(&cols.join(", "));
                out.push_str(") ");
            }
            match source {
                InsertSource::Values(rows) => {
                    out.push_str("VALUES ");
                    for (i, row) in rows.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        out.push('(');
                        for (j, e) in row.iter().enumerate() {
                            if j > 0 {
                                out.push_str(", ");
                            }
                            write_expr(out, e);
                        }
                        out.push(')');
                    }
                }
                InsertSource::Select(q) => write_select(out, q),
            }
        }
        Stmt::Delete { table, filter } => {
            let _ = write!(out, "DELETE FROM {table}");
            if let Some(f) = filter {
                out.push_str(" WHERE ");
                write_expr(out, f);
            }
        }
        Stmt::Update {
            table,
            sets,
            filter,
        } => {
            let _ = write!(out, "UPDATE {table} SET ");
            for (i, (col, e)) in sets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{col} = ");
                write_expr(out, e);
            }
            if let Some(f) = filter {
                out.push_str(" WHERE ");
                write_expr(out, f);
            }
        }
        Stmt::Select(q) => write_select(out, q),
        Stmt::Begin => out.push_str("BEGIN"),
        Stmt::Commit => out.push_str("COMMIT"),
        Stmt::Rollback { to_savepoint } => {
            out.push_str("ROLLBACK");
            if let Some(name) = to_savepoint {
                let _ = write!(out, " TO SAVEPOINT {name}");
            }
        }
        Stmt::Savepoint { name } => {
            let _ = write!(out, "SAVEPOINT {name}");
        }
        Stmt::Checkpoint => out.push_str("CHECKPOINT"),
        Stmt::Explain { analyze, stmt } => {
            out.push_str(if *analyze {
                "EXPLAIN ANALYZE "
            } else {
                "EXPLAIN "
            });
            write_stmt(out, stmt);
        }
    }
}

/// Render one expression as SQL (fully parenthesized), for plan display.
pub(crate) fn expr_to_sql(e: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, e);
    out
}

fn write_select(out: &mut String, q: &SelectStmt) {
    if !q.ctes.is_empty() {
        out.push_str("WITH ");
        for (i, cte) in q.ctes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&cte.name);
            if let Some(cols) = &cte.columns {
                out.push('(');
                out.push_str(&cols.join(", "));
                out.push(')');
            }
            out.push_str(" AS (");
            write_union(out, &cte.body);
            out.push(')');
        }
        out.push(' ');
    }
    write_union(out, &q.body);
    if !q.order_by.is_empty() {
        out.push_str(" ORDER BY ");
        for (i, key) in q.order_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_expr(out, &key.expr);
            if key.desc {
                out.push_str(" DESC");
            }
        }
    }
    if let Some(n) = q.limit {
        let _ = write!(out, " LIMIT {n}");
    }
}

fn write_union(out: &mut String, cores: &[SelectCore]) {
    if cores.len() == 1 {
        write_core(out, &cores[0]);
        return;
    }
    for (i, core) in cores.iter().enumerate() {
        if i > 0 {
            out.push_str(" UNION ALL ");
        }
        out.push('(');
        write_core(out, core);
        out.push(')');
    }
}

fn write_core(out: &mut String, core: &SelectCore) {
    out.push_str("SELECT ");
    if core.distinct {
        out.push_str("DISTINCT ");
    }
    for (i, item) in core.projections.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match item {
            SelectItem::Wildcard => out.push('*'),
            SelectItem::QualifiedWildcard(t) => {
                let _ = write!(out, "{t}.*");
            }
            SelectItem::Expr { expr, alias } => {
                write_expr(out, expr);
                if let Some(a) = alias {
                    let _ = write!(out, " AS {a}");
                }
            }
        }
    }
    if !core.from.is_empty() {
        out.push_str(" FROM ");
        for (i, tref) in core.from.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&tref.name);
            if let Some(a) = &tref.alias {
                let _ = write!(out, " AS {a}");
            }
        }
    }
    if let Some(f) = &core.filter {
        out.push_str(" WHERE ");
        write_expr(out, f);
    }
}

fn write_expr(out: &mut String, e: &Expr) {
    match e {
        Expr::Literal(v) => write_literal(out, v),
        Expr::Param(i) => {
            let _ = write!(out, "${}", i + 1);
        }
        Expr::Column { table, name } => match table {
            Some(t) => {
                let _ = write!(out, "{t}.{name}");
            }
            None => out.push_str(name),
        },
        Expr::Unary { op, expr } => {
            out.push('(');
            match op {
                UnOp::Neg => out.push('-'),
                UnOp::Not => out.push_str("NOT "),
            }
            write_expr(out, expr);
            out.push(')');
        }
        Expr::Binary { left, op, right } => {
            out.push('(');
            write_expr(out, left);
            let op = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Mod => "%",
                BinOp::Eq => "=",
                BinOp::Ne => "<>",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::And => "AND",
                BinOp::Or => "OR",
            };
            let _ = write!(out, " {op} ");
            write_expr(out, right);
            out.push(')');
        }
        Expr::IsNull { expr, negated } => {
            out.push('(');
            write_expr(out, expr);
            out.push_str(if *negated { " IS NOT NULL" } else { " IS NULL" });
            out.push(')');
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            out.push('(');
            write_expr(out, expr);
            out.push_str(if *negated { " NOT LIKE " } else { " LIKE " });
            let _ = write!(out, "'{}'", pattern.replace('\'', "''"));
            out.push(')');
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            out.push('(');
            write_expr(out, expr);
            out.push_str(if *negated { " NOT IN (" } else { " IN (" });
            for (i, item) in list.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, item);
            }
            out.push_str("))");
        }
        Expr::InSubquery {
            expr,
            query,
            negated,
        } => {
            out.push('(');
            write_expr(out, expr);
            out.push_str(if *negated { " NOT IN (" } else { " IN (" });
            write_select(out, query);
            out.push_str("))");
        }
        Expr::Exists { query, negated } => {
            out.push('(');
            if *negated {
                out.push_str("NOT ");
            }
            out.push_str("EXISTS (");
            write_select(out, query);
            out.push_str("))");
        }
        Expr::ScalarSubquery(query) => {
            out.push('(');
            write_select(out, query);
            out.push(')');
        }
        Expr::Aggregate { func, arg } => {
            let func = match func {
                AggFunc::Count => "COUNT",
                AggFunc::Min => "MIN",
                AggFunc::Max => "MAX",
                AggFunc::Sum => "SUM",
            };
            let _ = write!(out, "{func}(");
            match arg {
                None => out.push('*'),
                Some(e) => write_expr(out, e),
            }
            out.push(')');
        }
    }
}

fn write_literal(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("NULL"),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Str(s) => {
            let _ = write!(out, "'{}'", s.replace('\'', "''"));
        }
        Value::Bool(b) => out.push_str(if *b { "TRUE" } else { "FALSE" }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_stmt;

    /// Parsing the rendered text must reproduce the AST exactly.
    fn roundtrip(sql: &str) {
        let stmt = parse_stmt(sql).unwrap();
        let rendered = stmt_to_sql(&stmt);
        let reparsed = parse_stmt(&rendered)
            .unwrap_or_else(|e| panic!("render of `{sql}` unparseable: `{rendered}`: {e}"));
        assert_eq!(
            stmt, reparsed,
            "roundtrip changed AST for `{sql}`\nrendered: {rendered}"
        );
    }

    #[test]
    fn ddl_roundtrips() {
        roundtrip("CREATE TABLE Customer (id INTEGER, Name TEXT, active BOOLEAN)");
        roundtrip("CREATE TABLE IF NOT EXISTS t (x INT)");
        roundtrip("DROP TABLE t");
        roundtrip("DROP TABLE IF EXISTS t");
        roundtrip("CREATE INDEX c_id ON Customer (id)");
        roundtrip("ANALYZE");
        roundtrip("ANALYZE Customer");
        roundtrip("DROP TRIGGER del_cust");
    }

    #[test]
    fn trigger_bodies_roundtrip() {
        roundtrip(
            "CREATE TRIGGER del_cust AFTER DELETE ON Customer FOR EACH ROW BEGIN
               DELETE FROM Order WHERE parentId = OLD.id;
               UPDATE ASR SET deleted = TRUE WHERE id = OLD.id;
             END",
        );
        roundtrip(
            "CREATE TRIGGER gc AFTER DELETE ON A FOR EACH STATEMENT BEGIN
               DELETE FROM B WHERE parentId NOT IN (SELECT id FROM A);
             END",
        );
    }

    #[test]
    fn dml_roundtrips() {
        roundtrip("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)");
        roundtrip("INSERT INTO t SELECT a, b FROM u WHERE a > 3");
        roundtrip("DELETE FROM t WHERE id = 5 AND name = 'John''s'");
        roundtrip("UPDATE t SET a = a + 1, b = NULL WHERE id IN (1, 2, 3)");
    }

    #[test]
    fn queries_roundtrip() {
        roundtrip("SELECT DISTINCT id, Name AS n FROM Customer C, Order O WHERE O.parentId = C.id ORDER BY id DESC LIMIT 10");
        roundtrip("SELECT COUNT(*), MIN(id), MAX(id), SUM(Qty) FROM t");
        roundtrip("SELECT (SELECT MAX(id) FROM t) FROM u WHERE NOT EXISTS (SELECT * FROM v)");
        roundtrip("SELECT * FROM t WHERE a = 1 OR b = 2 AND NOT c = 3");
        roundtrip("SELECT O.* FROM Order O WHERE O.id IS NOT NULL");
        roundtrip("SELECT * FROM t WHERE name LIKE 'Jo%' AND path NOT LIKE '%''s_'");
        roundtrip("SELECT * FROM t WHERE num BETWEEN 3 AND 7 AND id NOT BETWEEN 1 AND 2");
        roundtrip(
            "WITH Q1(C1, C2) AS (SELECT id, Name FROM Customer WHERE Name = 'John'),
                  Q2(C1, C2) AS (SELECT C1, NULL FROM Q1)
             (SELECT * FROM Q1) UNION ALL (SELECT * FROM Q2) ORDER BY C1, C2",
        );
    }

    #[test]
    fn control_roundtrips() {
        roundtrip("BEGIN");
        roundtrip("COMMIT");
        roundtrip("ROLLBACK");
        roundtrip("ROLLBACK TO SAVEPOINT sp1");
        roundtrip("SAVEPOINT sp1");
        roundtrip("CHECKPOINT");
    }

    #[test]
    fn parameters_roundtrip() {
        roundtrip("INSERT INTO t VALUES ($1, $2, $3)");
        roundtrip("UPDATE t SET a = $1 WHERE id = $2");
    }

    #[test]
    fn explain_roundtrips() {
        roundtrip("EXPLAIN SELECT id FROM t WHERE id = 1");
        roundtrip("EXPLAIN DELETE FROM t WHERE parentId NOT IN (SELECT id FROM u)");
        roundtrip("EXPLAIN INSERT INTO t SELECT a, b FROM u");
        roundtrip("EXPLAIN EXPLAIN SELECT * FROM t");
    }
}
