#pragma once

#include <memory>

#include "fix/fixer.h"
#include "rules/rule.h"

namespace sqlcheck {

/// \brief Constructors for the two built-in halves of every catalog row
/// (rules/catalog.def): New<Id>Rule() builds the detection half <Id>Rule,
/// defined beside its siblings in rules/*_rules.cc; New<Id>Fixer() builds the
/// action half <Id>Fixer, and fix/fixers.cc (home of every fixer) generates
/// all of them from the catalog. RuleRegistry::Default() registers both
/// halves in row order.
#define SQLCHECK_AP(Id, ...)             \
  std::unique_ptr<Rule> New##Id##Rule(); \
  std::unique_ptr<Fixer> New##Id##Fixer();
#include "rules/catalog.def"

}  // namespace sqlcheck
