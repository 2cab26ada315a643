#ifndef RPQI_REGEX_PRINTER_H_
#define RPQI_REGEX_PRINTER_H_

#include <string>

#include "base/budget.h"
#include "base/status.h"
#include "regex/ast.h"

namespace rpqi {

/// Renders `e` in the parser's input syntax with minimal parentheses, so that
/// ParseRegex(RegexToString(e)) reproduces an AST with the same language.
std::string RegexToString(const RegexPtr& e);

/// Budgeted form: the same text, or the budget's status once it runs out
/// (checked every 4,096 rendered nodes). A regex whose nodes are shared —
/// state elimination builds such DAGs — renders every use of a shared node,
/// so its text can be exponentially longer than the DAG.
StatusOr<std::string> RegexToString(const RegexPtr& e, Budget* budget);

}  // namespace rpqi

#endif  // RPQI_REGEX_PRINTER_H_
