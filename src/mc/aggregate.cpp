#include "mc/aggregate.h"

namespace acme::mc {

void MetricAggregator::add(double x) {
  moments_.add(x);
  values_.add(x);
}

}  // namespace acme::mc
