//! Projection items: the `SELECT`-list entries (expression + output
//! name) a π stage of `maybms-pipe`'s `UStream` evaluates — SQL
//! semantics, no implicit duplicate elimination.

use crate::expr::Expr;

/// One output column: an expression and its output name.
#[derive(Debug, Clone)]
pub struct ProjectItem {
    /// Expression computing the column.
    pub expr: Expr,
    /// Output column name.
    pub name: String,
}

impl ProjectItem {
    /// Construct an item.
    pub fn new(expr: Expr, name: impl Into<String>) -> ProjectItem {
        ProjectItem { expr, name: name.into() }
    }

    /// A bare column kept under its own name.
    pub fn col(name: impl Into<String>) -> ProjectItem {
        let name = name.into();
        ProjectItem { expr: Expr::col(name.clone()), name }
    }
}
