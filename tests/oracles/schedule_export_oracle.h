#ifndef MRS_TESTS_ORACLES_SCHEDULE_EXPORT_ORACLE_H_
#define MRS_TESTS_ORACLES_SCHEDULE_EXPORT_ORACLE_H_

#include <string>

#include "core/list_schedule.h"
#include "core/schedule.h"
#include "core/tree_schedule.h"

namespace mrs {
namespace oracle {

// The printf-per-number schedule encoders the JsonWriter-based exports in
// io/schedule_export.h replaced, kept verbatim as the differential oracle:
// for finite values the production bytes must equal these exactly. Same
// formats as the production functions of the same names.

std::string ScheduleToJson(const Schedule& schedule);
std::string TreeScheduleToJson(const TreeScheduleResult& result);
std::string TreeScheduleToCsv(const TreeScheduleResult& result);
std::string ListScheduleToJson(const ListScheduleResult& result);
std::string ListScheduleToCsv(const ListScheduleResult& result);

}  // namespace oracle
}  // namespace mrs

#endif  // MRS_TESTS_ORACLES_SCHEDULE_EXPORT_ORACLE_H_
