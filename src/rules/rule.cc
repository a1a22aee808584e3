#include "rules/rule.h"

#include <cctype>

#include "common/strings.h"

namespace sqlcheck {

namespace {

using enum AntiPattern;  // rows name their enumerator as k<Id>

constexpr ApInfo kApTable[] = {
#define SQLCHECK_AP(Id, Name, Category, P, M, DA, DI, A, RP, WP, MAINT, DAMP, Fix) \
  {k##Id, Name, ApCategory::Category, P, M, DA, DI, A, Fix},
#include "rules/catalog.def"
};

}  // namespace

const ApInfo& InfoFor(AntiPattern type) { return kApTable[static_cast<size_t>(type)]; }

const char* ApName(AntiPattern type) { return InfoFor(type).name; }

std::string ApSlug(AntiPattern type) {
  std::string slug;
  for (char c : std::string_view(ApName(type))) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!slug.empty() && slug.back() != '-') {
      slug.push_back('-');
    }
  }
  if (!slug.empty() && slug.back() == '-') slug.pop_back();
  return slug;
}

const ApInfo* FindApInfoByName(std::string_view name) {
  for (const ApInfo& info : kApTable) {
    if (EqualsIgnoreCase(info.name, name)) return &info;
  }
  return nullptr;
}

const char* CategoryName(ApCategory category) {
  switch (category) {
    case ApCategory::kLogicalDesign: return "Logical Design";
    case ApCategory::kPhysicalDesign: return "Physical Design";
    case ApCategory::kQuery: return "Query";
    case ApCategory::kData: return "Data";
  }
  return "Unknown";
}

}  // namespace sqlcheck
