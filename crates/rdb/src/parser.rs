//! Recursive-descent parser for the SQL subset.

use crate::ast::*;
use crate::error::{DbError, Result};
use crate::lexer::{lex, Tok};
use crate::value::{DataType, Value};

/// Parse a script of one or more `;`-separated statements.
pub fn parse_script(sql: &str) -> Result<Vec<Stmt>> {
    let toks = lex(sql)?;
    let mut p = Parser {
        toks,
        pos: 0,
        params: 0,
    };
    let mut out = Vec::new();
    loop {
        while p.eat_tok(&Tok::Semi) {}
        if p.at_end() {
            return Ok(out);
        }
        out.push(p.stmt()?);
    }
}

/// Parse a script like [`parse_script`], additionally returning each
/// statement's SQL text (re-rendered from its tokens) so callers can
/// attribute an execution error to the statement that raised it.
pub fn parse_script_with_text(sql: &str) -> Result<Vec<(Stmt, String)>> {
    let toks = lex(sql)?;
    let mut p = Parser {
        toks,
        pos: 0,
        params: 0,
    };
    let mut out = Vec::new();
    loop {
        while p.eat_tok(&Tok::Semi) {}
        if p.at_end() {
            return Ok(out);
        }
        let start = p.pos;
        let stmt = p.stmt()?;
        let text = render_tokens(&p.toks[start..p.pos]);
        out.push((stmt, text));
    }
}

/// Join tokens back into readable SQL: single spaces between tokens,
/// except none before `,`/`)`/`;`, none after `(`, and none around `.`.
fn render_tokens(toks: &[Tok]) -> String {
    let mut out = String::new();
    let mut prev: Option<&Tok> = None;
    for t in toks {
        let glue = !matches!(
            (prev, t),
            (None, _)
                | (_, Tok::Comma | Tok::RParen | Tok::Semi | Tok::Dot)
                | (Some(Tok::LParen | Tok::Dot), _)
        );
        if glue {
            out.push(' ');
        }
        use std::fmt::Write as _;
        let _ = write!(out, "{t}");
        prev = Some(t);
    }
    out
}

/// Parse exactly one statement (trailing `;` allowed).
pub fn parse_stmt(sql: &str) -> Result<Stmt> {
    Ok(parse_stmt_with_params(sql)?.0)
}

/// Parse exactly one statement and report how many parameter slots it
/// binds: `?` placeholders are numbered left to right, `$n` placeholders
/// name their 1-based slot explicitly, and the count is the highest slot
/// referenced.
pub fn parse_stmt_with_params(sql: &str) -> Result<(Stmt, usize)> {
    let toks = lex(sql)?;
    let mut p = Parser {
        toks,
        pos: 0,
        params: 0,
    };
    while p.eat_tok(&Tok::Semi) {}
    let stmt = p.stmt()?;
    while p.eat_tok(&Tok::Semi) {}
    if !p.at_end() {
        return Err(DbError::SqlParse(
            "expected one statement, found more".into(),
        ));
    }
    Ok((stmt, p.params))
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// Number of parameter slots seen so far (highest `$n`, or the count
    /// of `?` placeholders numbered left to right).
    params: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1)
    }

    fn next_tok(&mut self) -> Result<Tok> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| DbError::SqlParse("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat_tok(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_tok(&mut self, t: &Tok) -> Result<()> {
        if self.eat_tok(t) {
            Ok(())
        } else {
            Err(DbError::SqlParse(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.is_kw(kw))
    }

    fn peek2_kw(&self, kw: &str) -> bool {
        self.peek2().is_some_and(|t| t.is_kw(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(DbError::SqlParse(format!(
                "expected `{kw}`, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next_tok()? {
            Tok::Ident(s) => Ok(s),
            other => Err(DbError::SqlParse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    // --------------------------------------------------------------
    // statements
    // --------------------------------------------------------------

    fn stmt(&mut self) -> Result<Stmt> {
        if self.peek_kw("CREATE") {
            self.create()
        } else if self.peek_kw("DROP") {
            self.drop_stmt()
        } else if self.peek_kw("INSERT") {
            self.insert()
        } else if self.peek_kw("DELETE") {
            self.delete()
        } else if self.peek_kw("UPDATE") {
            self.update()
        } else if self.peek_kw("SELECT")
            || self.peek_kw("WITH")
            || self.peek() == Some(&Tok::LParen)
        {
            Ok(Stmt::Select(Box::new(self.select_stmt()?)))
        } else if self.eat_kw("BEGIN") {
            // `BEGIN [TRANSACTION | WORK]`. A trigger definition's body
            // delimiter is consumed inside `create()`, so a `BEGIN` seen
            // here is unambiguously transaction control.
            let _ = self.eat_kw("TRANSACTION") || self.eat_kw("WORK");
            Ok(Stmt::Begin)
        } else if self.eat_kw("COMMIT") {
            let _ = self.eat_kw("TRANSACTION") || self.eat_kw("WORK");
            Ok(Stmt::Commit)
        } else if self.eat_kw("ROLLBACK") {
            let _ = self.eat_kw("TRANSACTION") || self.eat_kw("WORK");
            let to_savepoint = if self.eat_kw("TO") {
                let _ = self.eat_kw("SAVEPOINT");
                Some(self.ident()?)
            } else {
                None
            };
            Ok(Stmt::Rollback { to_savepoint })
        } else if self.eat_kw("SAVEPOINT") {
            Ok(Stmt::Savepoint {
                name: self.ident()?,
            })
        } else if self.eat_kw("CHECKPOINT") {
            Ok(Stmt::Checkpoint)
        } else if self.eat_kw("ANALYZE") {
            // `ANALYZE [table]` — a bare identifier next is the table;
            // statements are `;`-separated, so anything else ends it.
            let table = match self.peek() {
                Some(Tok::Ident(_)) => Some(self.ident()?),
                _ => None,
            };
            Ok(Stmt::Analyze { table })
        } else if self.eat_kw("EXPLAIN") {
            let analyze = self.eat_kw("ANALYZE");
            Ok(Stmt::Explain {
                analyze,
                stmt: Box::new(self.stmt()?),
            })
        } else {
            Err(DbError::SqlParse(format!(
                "unexpected statement start: {:?}",
                self.peek()
            )))
        }
    }

    fn create(&mut self) -> Result<Stmt> {
        self.expect_kw("CREATE")?;
        if self.eat_kw("TABLE") {
            let if_not_exists = if self.eat_kw("IF") {
                self.expect_kw("NOT")?;
                self.expect_kw("EXISTS")?;
                true
            } else {
                false
            };
            let name = self.ident()?;
            self.expect_tok(&Tok::LParen)?;
            let mut columns = Vec::new();
            loop {
                let cname = self.ident()?;
                let ty = self.data_type()?;
                columns.push(ColumnDef { name: cname, ty });
                if !self.eat_tok(&Tok::Comma) {
                    break;
                }
            }
            self.expect_tok(&Tok::RParen)?;
            Ok(Stmt::CreateTable {
                name,
                columns,
                if_not_exists,
            })
        } else if self.eat_kw("INDEX") {
            let name = self.ident()?;
            self.expect_kw("ON")?;
            let table = self.ident()?;
            self.expect_tok(&Tok::LParen)?;
            let column = self.ident()?;
            self.expect_tok(&Tok::RParen)?;
            Ok(Stmt::CreateIndex {
                name,
                table,
                column,
            })
        } else if self.eat_kw("TRIGGER") {
            let name = self.ident()?;
            self.expect_kw("AFTER")?;
            let event = if self.eat_kw("DELETE") {
                TriggerEvent::Delete
            } else if self.eat_kw("INSERT") {
                TriggerEvent::Insert
            } else {
                return Err(DbError::SqlParse(
                    "expected DELETE or INSERT after AFTER".into(),
                ));
            };
            self.expect_kw("ON")?;
            let table = self.ident()?;
            let granularity = if self.eat_kw("FOR") {
                self.expect_kw("EACH")?;
                if self.eat_kw("ROW") {
                    TriggerGranularity::Row
                } else {
                    self.expect_kw("STATEMENT")?;
                    TriggerGranularity::Statement
                }
            } else {
                TriggerGranularity::Statement
            };
            self.expect_kw("BEGIN")?;
            let mut body = Vec::new();
            loop {
                while self.eat_tok(&Tok::Semi) {}
                if self.eat_kw("END") {
                    break;
                }
                body.push(self.stmt()?);
            }
            Ok(Stmt::CreateTrigger {
                name,
                event,
                table,
                granularity,
                body,
            })
        } else {
            Err(DbError::SqlParse(
                "expected TABLE, INDEX, or TRIGGER after CREATE".into(),
            ))
        }
    }

    fn drop_stmt(&mut self) -> Result<Stmt> {
        self.expect_kw("DROP")?;
        if self.eat_kw("TABLE") {
            let if_exists = if self.eat_kw("IF") {
                self.expect_kw("EXISTS")?;
                true
            } else {
                false
            };
            Ok(Stmt::DropTable {
                name: self.ident()?,
                if_exists,
            })
        } else if self.eat_kw("TRIGGER") {
            Ok(Stmt::DropTrigger {
                name: self.ident()?,
            })
        } else {
            Err(DbError::SqlParse(
                "expected TABLE or TRIGGER after DROP".into(),
            ))
        }
    }

    fn data_type(&mut self) -> Result<DataType> {
        let name = self.ident()?.to_ascii_uppercase();
        let ty = match name.as_str() {
            "INTEGER" | "INT" | "BIGINT" | "SMALLINT" => DataType::Integer,
            "TEXT" | "STRING" | "CLOB" => DataType::Text,
            "VARCHAR" | "CHAR" | "CHARACTER" => {
                // Optional length, parsed and ignored.
                if self.eat_tok(&Tok::LParen) {
                    match self.next_tok()? {
                        Tok::Int(_) => {}
                        other => {
                            return Err(DbError::SqlParse(format!(
                                "expected length, found {other:?}"
                            )))
                        }
                    }
                    self.expect_tok(&Tok::RParen)?;
                }
                DataType::Text
            }
            "BOOLEAN" | "BOOL" => DataType::Boolean,
            other => return Err(DbError::SqlParse(format!("unknown type `{other}`"))),
        };
        Ok(ty)
    }

    fn insert(&mut self) -> Result<Stmt> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        // Optional column list: `(` followed by an identifier that is then
        // followed by `,` or `)` — otherwise it is a parenthesized SELECT.
        let mut columns = None;
        if self.peek() == Some(&Tok::LParen) && !self.peek2_kw("SELECT") && !self.peek2_kw("WITH") {
            self.expect_tok(&Tok::LParen)?;
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if !self.eat_tok(&Tok::Comma) {
                    break;
                }
            }
            self.expect_tok(&Tok::RParen)?;
            columns = Some(cols);
        }
        let source = if self.eat_kw("VALUES") {
            let mut rows = Vec::new();
            loop {
                self.expect_tok(&Tok::LParen)?;
                let mut row = Vec::new();
                loop {
                    row.push(self.expr()?);
                    if !self.eat_tok(&Tok::Comma) {
                        break;
                    }
                }
                self.expect_tok(&Tok::RParen)?;
                rows.push(row);
                if !self.eat_tok(&Tok::Comma) {
                    break;
                }
            }
            InsertSource::Values(rows)
        } else {
            InsertSource::Select(Box::new(self.select_stmt()?))
        };
        Ok(Stmt::Insert {
            table,
            columns,
            source,
        })
    }

    fn delete(&mut self) -> Result<Stmt> {
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let filter = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::Delete { table, filter })
    }

    fn update(&mut self) -> Result<Stmt> {
        self.expect_kw("UPDATE")?;
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_tok(&Tok::Eq)?;
            sets.push((col, self.expr()?));
            if !self.eat_tok(&Tok::Comma) {
                break;
            }
        }
        let filter = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::Update {
            table,
            sets,
            filter,
        })
    }

    // --------------------------------------------------------------
    // queries
    // --------------------------------------------------------------

    fn select_stmt(&mut self) -> Result<SelectStmt> {
        let mut ctes = Vec::new();
        if self.eat_kw("WITH") {
            loop {
                let name = self.ident()?;
                let columns = if self.eat_tok(&Tok::LParen) {
                    let mut cols = Vec::new();
                    loop {
                        cols.push(self.ident()?);
                        if !self.eat_tok(&Tok::Comma) {
                            break;
                        }
                    }
                    self.expect_tok(&Tok::RParen)?;
                    Some(cols)
                } else {
                    None
                };
                self.expect_kw("AS")?;
                self.expect_tok(&Tok::LParen)?;
                let body = self.union_body()?;
                self.expect_tok(&Tok::RParen)?;
                ctes.push(Cte {
                    name,
                    columns,
                    body,
                });
                if !self.eat_tok(&Tok::Comma) {
                    break;
                }
            }
        }
        let body = self.union_body()?;
        let mut order_by = Vec::new();
        if self.peek_kw("ORDER") && self.peek2_kw("BY") {
            self.expect_kw("ORDER")?;
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderKey { expr, desc });
                if !self.eat_tok(&Tok::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.next_tok()? {
                Tok::Int(n) if n >= 0 => Some(n as u64),
                other => return Err(DbError::SqlParse(format!("bad LIMIT: {other:?}"))),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            ctes,
            body,
            order_by,
            limit,
        })
    }

    /// `core (UNION ALL core)*` where each core may be parenthesized.
    fn union_body(&mut self) -> Result<Vec<SelectCore>> {
        let mut cores = vec![self.core_maybe_paren()?];
        while self.peek_kw("UNION") {
            self.expect_kw("UNION")?;
            self.expect_kw("ALL")?;
            cores.push(self.core_maybe_paren()?);
        }
        Ok(cores)
    }

    fn core_maybe_paren(&mut self) -> Result<SelectCore> {
        if self.eat_tok(&Tok::LParen) {
            let core = self.select_core()?;
            self.expect_tok(&Tok::RParen)?;
            Ok(core)
        } else {
            self.select_core()
        }
    }

    fn select_core(&mut self) -> Result<SelectCore> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let mut projections = Vec::new();
        loop {
            if self.eat_tok(&Tok::Star) {
                projections.push(SelectItem::Wildcard);
            } else if matches!(self.peek(), Some(Tok::Ident(_)))
                && self.peek2() == Some(&Tok::Dot)
                && self.toks.get(self.pos + 2) == Some(&Tok::Star)
            {
                let t = self.ident()?;
                self.expect_tok(&Tok::Dot)?;
                self.expect_tok(&Tok::Star)?;
                projections.push(SelectItem::QualifiedWildcard(t));
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_kw("AS") || self.projection_alias_ahead() {
                    Some(self.ident()?)
                } else {
                    None
                };
                projections.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_tok(&Tok::Comma) {
                break;
            }
        }
        let mut from = Vec::new();
        if self.eat_kw("FROM") {
            loop {
                let name = self.ident()?;
                let alias = if self.eat_kw("AS") || self.table_alias_ahead() {
                    Some(self.ident()?)
                } else {
                    None
                };
                from.push(TableRef { name, alias });
                if !self.eat_tok(&Tok::Comma) {
                    break;
                }
            }
        }
        let filter = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(SelectCore {
            distinct,
            projections,
            from,
            filter,
        })
    }

    /// Is the next token a bare projection alias (an identifier that does
    /// not start the next clause)?
    fn projection_alias_ahead(&self) -> bool {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                let up = s.to_ascii_uppercase();
                if up == "ORDER" {
                    return !self.peek2_kw("BY");
                }
                !matches!(
                    up.as_str(),
                    "FROM" | "WHERE" | "UNION" | "LIMIT" | "AS" | "END"
                )
            }
            _ => false,
        }
    }

    /// Is the next token a bare table alias?
    fn table_alias_ahead(&self) -> bool {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                let up = s.to_ascii_uppercase();
                if up == "ORDER" {
                    return !self.peek2_kw("BY");
                }
                !matches!(
                    up.as_str(),
                    "WHERE" | "UNION" | "LIMIT" | "END" | "ON" | "SET"
                )
            }
            _ => false,
        }
    }

    // --------------------------------------------------------------
    // expressions
    // --------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinOp::Or,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinOp::And,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.peek_kw("NOT") && !self.peek2_kw("EXISTS") {
            self.expect_kw("NOT")?;
            let inner = self.not_expr()?;
            return Ok(Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(inner),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        // EXISTS / NOT EXISTS.
        if self.peek_kw("EXISTS") || (self.peek_kw("NOT") && self.peek2_kw("EXISTS")) {
            let negated = self.eat_kw("NOT");
            self.expect_kw("EXISTS")?;
            self.expect_tok(&Tok::LParen)?;
            let q = self.select_stmt()?;
            self.expect_tok(&Tok::RParen)?;
            return Ok(Expr::Exists {
                query: Box::new(q),
                negated,
            });
        }
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] BETWEEN lo AND hi — desugared at parse time into the
        // conjunction `left >= lo AND left <= hi` so the planner's
        // conjunct machinery (pushdown, range-seek extraction) sees
        // plain comparisons. Bounds parse at `additive` level so the
        // connecting AND is not swallowed.
        if self.peek_kw("BETWEEN") || (self.peek_kw("NOT") && self.peek2_kw("BETWEEN")) {
            let negated = self.eat_kw("NOT");
            self.expect_kw("BETWEEN")?;
            let lo = self.additive()?;
            self.expect_kw("AND")?;
            let hi = self.additive()?;
            let ge = Expr::Binary {
                left: Box::new(left.clone()),
                op: BinOp::Ge,
                right: Box::new(lo),
            };
            let le = Expr::Binary {
                left: Box::new(left),
                op: BinOp::Le,
                right: Box::new(hi),
            };
            let both = Expr::Binary {
                left: Box::new(ge),
                op: BinOp::And,
                right: Box::new(le),
            };
            return Ok(if negated {
                Expr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(both),
                }
            } else {
                both
            });
        }
        // [NOT] LIKE 'pattern' — the pattern must be a string literal so
        // its non-wildcard prefix is known at plan time.
        if self.peek_kw("LIKE") || (self.peek_kw("NOT") && self.peek2_kw("LIKE")) {
            let negated = self.eat_kw("NOT");
            self.expect_kw("LIKE")?;
            let pattern = match self.next_tok()? {
                Tok::Str(s) => s,
                other => {
                    return Err(DbError::SqlParse(format!(
                        "LIKE pattern must be a string literal, found {other:?}"
                    )))
                }
            };
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern,
                negated,
            });
        }
        // [NOT] IN
        if self.peek_kw("IN") || (self.peek_kw("NOT") && self.peek2_kw("IN")) {
            let negated = self.eat_kw("NOT");
            self.expect_kw("IN")?;
            self.expect_tok(&Tok::LParen)?;
            if self.peek_kw("SELECT") || self.peek_kw("WITH") {
                let q = self.select_stmt()?;
                self.expect_tok(&Tok::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    query: Box::new(q),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat_tok(&Tok::Comma) {
                    break;
                }
            }
            self.expect_tok(&Tok::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        let op = match self.peek() {
            Some(Tok::Eq) => Some(BinOp::Eq),
            Some(Tok::Ne) => Some(BinOp::Ne),
            Some(Tok::Lt) => Some(BinOp::Lt),
            Some(Tok::Le) => Some(BinOp::Le),
            Some(Tok::Gt) => Some(BinOp::Gt),
            Some(Tok::Ge) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.additive()?;
            return Ok(Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            });
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.multiplicative()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                Some(Tok::Percent) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.unary()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_tok(&Tok::Minus) {
            let inner = self.unary()?;
            return Ok(Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(inner),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().cloned() {
            Some(Tok::Int(n)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Int(n)))
            }
            Some(Tok::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Str(s)))
            }
            Some(Tok::Question) => {
                self.pos += 1;
                let idx = self.params;
                self.params += 1;
                Ok(Expr::Param(idx))
            }
            Some(Tok::Dollar(n)) => {
                self.pos += 1;
                if n == 0 {
                    return Err(DbError::SqlParse(
                        "parameter indexes are 1-based: $0".into(),
                    ));
                }
                self.params = self.params.max(n);
                Ok(Expr::Param(n - 1))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                if self.peek_kw("SELECT") || self.peek_kw("WITH") {
                    let q = self.select_stmt()?;
                    self.expect_tok(&Tok::RParen)?;
                    return Ok(Expr::ScalarSubquery(Box::new(q)));
                }
                let e = self.expr()?;
                self.expect_tok(&Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Ident(word)) => {
                let up = word.to_ascii_uppercase();
                match up.as_str() {
                    "NULL" => {
                        self.pos += 1;
                        Ok(Expr::Literal(Value::Null))
                    }
                    "TRUE" => {
                        self.pos += 1;
                        Ok(Expr::Literal(Value::Bool(true)))
                    }
                    "FALSE" => {
                        self.pos += 1;
                        Ok(Expr::Literal(Value::Bool(false)))
                    }
                    "COUNT" | "MIN" | "MAX" | "SUM" if self.peek2() == Some(&Tok::LParen) => {
                        self.pos += 2;
                        let func = match up.as_str() {
                            "COUNT" => AggFunc::Count,
                            "MIN" => AggFunc::Min,
                            "MAX" => AggFunc::Max,
                            _ => AggFunc::Sum,
                        };
                        let arg = if self.eat_tok(&Tok::Star) {
                            if func != AggFunc::Count {
                                return Err(DbError::SqlParse(
                                    "`*` argument is only valid for COUNT".into(),
                                ));
                            }
                            None
                        } else {
                            Some(Box::new(self.expr()?))
                        };
                        self.expect_tok(&Tok::RParen)?;
                        Ok(Expr::Aggregate { func, arg })
                    }
                    _ => {
                        self.pos += 1;
                        if self.eat_tok(&Tok::Dot) {
                            let col = self.ident()?;
                            Ok(Expr::Column {
                                table: Some(word),
                                name: col,
                            })
                        } else {
                            Ok(Expr::Column {
                                table: None,
                                name: word,
                            })
                        }
                    }
                }
            }
            other => Err(DbError::SqlParse(format!(
                "unexpected token in expression: {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table_with_types() {
        let s = parse_stmt("CREATE TABLE Customer (id INTEGER, Name VARCHAR(50), active BOOLEAN)")
            .unwrap();
        match s {
            Stmt::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                assert_eq!(name, "Customer");
                assert!(!if_not_exists);
                assert_eq!(columns.len(), 3);
                assert_eq!(columns[1].ty, DataType::Text);
                assert_eq!(columns[2].ty, DataType::Boolean);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_values_and_select() {
        let s = parse_stmt("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)").unwrap();
        match s {
            Stmt::Insert {
                columns: Some(c),
                source: InsertSource::Values(rows),
                ..
            } => {
                assert_eq!(c, vec!["a", "b"]);
                assert_eq!(rows.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        let s = parse_stmt("INSERT INTO t SELECT a, b FROM u WHERE a > 3").unwrap();
        assert!(matches!(
            s,
            Stmt::Insert {
                source: InsertSource::Select(_),
                columns: None,
                ..
            }
        ));
    }

    #[test]
    fn order_as_table_name() {
        // The paper's schema calls a table `Order`; `ORDER BY` must still work.
        let s = parse_stmt("SELECT id FROM Order O WHERE O.parentId = 4 ORDER BY id DESC").unwrap();
        match s {
            Stmt::Select(sel) => {
                assert_eq!(sel.body[0].from[0].name, "Order");
                assert_eq!(sel.body[0].from[0].alias.as_deref(), Some("O"));
                assert_eq!(sel.order_by.len(), 1);
                assert!(sel.order_by[0].desc);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn not_in_subquery() {
        let s = parse_stmt("DELETE FROM Order WHERE parentId NOT IN (SELECT id FROM Customer)")
            .unwrap();
        match s {
            Stmt::Delete {
                table,
                filter: Some(Expr::InSubquery { negated, .. }),
            } => {
                assert_eq!(table, "Order");
                assert!(negated);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn with_union_all_order_by() {
        let sql = "
            WITH Q1(C1, C2) AS (SELECT id, Name FROM Customer WHERE Name = 'John'),
                 Q2(C1, C2) AS (SELECT C1, NULL FROM Q1)
            (SELECT * FROM Q1) UNION ALL (SELECT * FROM Q2)
            ORDER BY C1, C2";
        let s = parse_stmt(sql).unwrap();
        match s {
            Stmt::Select(sel) => {
                assert_eq!(sel.ctes.len(), 2);
                assert_eq!(sel.ctes[0].columns.as_ref().unwrap().len(), 2);
                assert_eq!(sel.body.len(), 2);
                assert_eq!(sel.order_by.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trigger_with_body() {
        let sql = "CREATE TRIGGER del_cust AFTER DELETE ON Customer FOR EACH ROW BEGIN
            DELETE FROM Order WHERE parentId = OLD.id;
        END";
        let s = parse_stmt(sql).unwrap();
        match s {
            Stmt::CreateTrigger {
                name,
                event,
                table,
                granularity,
                body,
            } => {
                assert_eq!(name, "del_cust");
                assert_eq!(event, TriggerEvent::Delete);
                assert_eq!(table, "Customer");
                assert_eq!(granularity, TriggerGranularity::Row);
                assert_eq!(body.len(), 1);
                assert!(matches!(&body[0], Stmt::Delete { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn per_statement_trigger() {
        let sql = "CREATE TRIGGER t AFTER DELETE ON A FOR EACH STATEMENT BEGIN
            DELETE FROM B WHERE parentId NOT IN (SELECT id FROM A);
        END";
        match parse_stmt(sql).unwrap() {
            Stmt::CreateTrigger { granularity, .. } => {
                assert_eq!(granularity, TriggerGranularity::Statement)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aggregates() {
        let s = parse_stmt("SELECT COUNT(*), MIN(id), MAX(id) FROM t").unwrap();
        match s {
            Stmt::Select(sel) => assert_eq!(sel.body[0].projections.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let s = parse_stmt("SELECT 1 + 2 * 3 - 4").unwrap();
        match s {
            Stmt::Select(sel) => match &sel.body[0].projections[0] {
                SelectItem::Expr { expr, .. } => {
                    // ((1 + (2*3)) - 4)
                    match expr {
                        Expr::Binary {
                            op: BinOp::Sub,
                            left,
                            ..
                        } => match left.as_ref() {
                            Expr::Binary { op: BinOp::Add, .. } => {}
                            other => panic!("{other:?}"),
                        },
                        other => panic!("{other:?}"),
                    }
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn and_or_precedence() {
        let s = parse_stmt("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        match s {
            Stmt::Select(sel) => match sel.body[0].filter.as_ref().unwrap() {
                Expr::Binary { op: BinOp::Or, .. } => {}
                other => panic!("expected OR at top: {other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_with_multiple_sets() {
        let s = parse_stmt("UPDATE t SET a = 1, b = NULL WHERE id = 5").unwrap();
        match s {
            Stmt::Update { sets, filter, .. } => {
                assert_eq!(sets.len(), 2);
                assert!(filter.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multi_statement_script() {
        let stmts = parse_script("CREATE TABLE a (x INT); INSERT INTO a VALUES (1);").unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn positional_parameters_number_left_to_right() {
        let (s, n) = parse_stmt_with_params("INSERT INTO t VALUES (?, ?, ?)").unwrap();
        assert_eq!(n, 3);
        match s {
            Stmt::Insert {
                source: InsertSource::Values(rows),
                ..
            } => {
                assert_eq!(
                    rows[0],
                    vec![Expr::Param(0), Expr::Param(1), Expr::Param(2)]
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dollar_parameters_reuse_slots() {
        let (s, n) =
            parse_stmt_with_params("SELECT * FROM t WHERE a = $1 OR b = $1 OR c = $2").unwrap();
        assert_eq!(n, 2);
        assert!(matches!(s, Stmt::Select(_)));
        assert!(parse_stmt_with_params("SELECT $0").is_err());
    }

    #[test]
    fn parameters_allowed_in_where_and_sets() {
        let (_, n) = parse_stmt_with_params("UPDATE t SET a = ?, b = ? WHERE id = ?").unwrap();
        assert_eq!(n, 3);
        let (_, n) = parse_stmt_with_params("DELETE FROM t WHERE id = ?").unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn figure5_outer_union_parses() {
        let sql = "
        WITH Q1(C1, C2, C3, C4, C5, C6, C7, C8, C9) AS (
            SELECT id, Name, Address_City, Address_State,
                   NULL, NULL, NULL, NULL, NULL
            FROM Customer
            WHERE Name = 'John'
        ), Q2(C1, C2, C3, C4, C5, C6, C7, C8, C9) AS (
            SELECT C1, NULL, NULL, NULL, id, Status, NULL, NULL, NULL
            FROM Q1, Order O
            WHERE O.parentId = Q1.C1
        ), Q3(C1, C2, C3, C4, C5, C6, C7, C8, C9) AS (
            SELECT C1, NULL, NULL, NULL, C5, NULL, id, ItemName, Qty
            FROM Q2, OrderLine OL
            WHERE OL.parentId = Q2.C5
        ) (
            SELECT * FROM Q1
        ) UNION ALL (
            SELECT * FROM Q2
        ) UNION ALL (
            SELECT * FROM Q3
        )
        ORDER BY C1, C5, C7";
        let s = parse_stmt(sql).unwrap();
        match s {
            Stmt::Select(sel) => {
                assert_eq!(sel.ctes.len(), 3);
                assert_eq!(sel.body.len(), 3);
                assert_eq!(sel.order_by.len(), 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn analyze_and_ordered_index() {
        assert_eq!(
            parse_stmt("ANALYZE").unwrap(),
            Stmt::Analyze { table: None }
        );
        assert_eq!(
            parse_stmt("ANALYZE asr").unwrap(),
            Stmt::Analyze {
                table: Some("asr".into())
            }
        );
        let plain = parse_stmt("CREATE INDEX i ON t (num)").unwrap();
        assert!(matches!(plain, Stmt::CreateIndex { .. }));
        // One index kind, so no `USING` clause to name it.
        for kind in ["ORDERED", "HASH", "BTREE"] {
            let with_kind = format!("CREATE INDEX i ON t (num) USING {kind}");
            assert!(parse_stmt(&with_kind).is_err(), "{with_kind}");
        }
    }

    #[test]
    fn between_desugars_to_comparisons() {
        let s = parse_stmt("SELECT * FROM t WHERE num BETWEEN 3 AND 7").unwrap();
        let expected = parse_stmt("SELECT * FROM t WHERE num >= 3 AND num <= 7").unwrap();
        assert_eq!(s, expected);
        let s = parse_stmt("SELECT * FROM t WHERE num NOT BETWEEN 3 AND 7").unwrap();
        let expected = parse_stmt("SELECT * FROM t WHERE NOT (num >= 3 AND num <= 7)").unwrap();
        assert_eq!(s, expected);
    }

    #[test]
    fn like_requires_literal_pattern() {
        match parse_stmt("SELECT * FROM t WHERE name LIKE 'Jo%'").unwrap() {
            Stmt::Select(sel) => match sel.body[0].filter.as_ref().unwrap() {
                Expr::Like {
                    pattern, negated, ..
                } => {
                    assert_eq!(pattern, "Jo%");
                    assert!(!negated);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        match parse_stmt("SELECT * FROM t WHERE name NOT LIKE '%x_'").unwrap() {
            Stmt::Select(sel) => {
                assert!(matches!(
                    sel.body[0].filter,
                    Some(Expr::Like { negated: true, .. })
                ));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_stmt("SELECT * FROM t WHERE name LIKE other").is_err());
    }

    #[test]
    fn exists_and_scalar_subquery() {
        let s =
            parse_stmt("SELECT (SELECT MAX(id) FROM t) FROM u WHERE NOT EXISTS (SELECT * FROM v)")
                .unwrap();
        match s {
            Stmt::Select(sel) => {
                assert!(matches!(
                    sel.body[0].projections[0],
                    SelectItem::Expr {
                        expr: Expr::ScalarSubquery(_),
                        ..
                    }
                ));
                assert!(matches!(
                    sel.body[0].filter,
                    Some(Expr::Exists { negated: true, .. })
                ));
            }
            other => panic!("{other:?}"),
        }
    }
}
